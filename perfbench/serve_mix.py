"""The ``serve_mix`` workload: seeded open-loop jobs against ``repro serve``.

``python -m repro serve`` runs as a subprocess with the CLI defaults
(two process-mode workers, journal fsync on) over a cache warmed at the
serve scale plus the points of one prior ``ParallelEngine`` sweep.  One
generator (the calling thread) sends ``simulate`` jobs open loop on a
seeded schedule (see :func:`schedule`): a fixed share repeats a config
the prior sweep cached, which the cache probe answers at submit time;
the rest are distinct configs that execute.  Latencies are server
timestamps against the due times, on the one ``time.time()`` clock.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import common

WORKLOAD_NAMES = ("go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex")
POLICIES = ("profile", "heuristics")
PREDICTORS = ("perfect", "none", "last", "stride", "fcm")
THREAD_UNITS = (2, 4, 8, 16)

#: Executed jobs per second offered.  The daemon completes 26-31 of
#: these jobs per second at saturation (2 vCPUs, a backlog of about 30),
#: so this is about a seventh of its capacity: on 2 vCPUs queueing and
#: answer latency grow steeply with load, and a run holds at most 240
#: distinct executed configs.
EXEC_RATE = 4.0
#: Share of requests that repeat a config the prior sweep cached.
REPEAT_SHARE = 0.4
#: Executed configs drawn per (workload, value predictor) pair, at least.
MIN_PER_PAIR = 3
#: Set-up is measured this many times per run (the last daemon is used).
SETUP_LAUNCHES = 5
#: Host-speed samples taken right before each daemon launch.
SETUP_SAMPLES = 4
#: The generator samples the host only while its next send is at least
#: this far away, so a sample never delays a send.
SAMPLE_ROOM_S = 0.01
#: Seconds a daemon may take to come up, and to finish after the schedule.
START_TIMEOUT_S = 30.0
FINISH_TIMEOUT_S = 60.0


def config_params(name: str, policy: str, predictor: str, tus: int) -> Dict[str, Any]:
    """The ``simulate`` params of one config, default knobs left out.

    Leaving defaults out keys a default config exactly as the engine's
    figure points do, so prior-sweep points answer from the cache.
    """
    overrides: Dict[str, Any] = {}
    if predictor != "perfect":
        overrides["value_predictor"] = predictor
    if tus != 16:
        overrides["num_thread_units"] = tus
    return {"name": name, "policy": policy, "scale": common.SERVE_SCALE, "overrides": overrides}


def all_configs() -> List[Dict[str, Any]]:
    """Every config the mix draws from, in a fixed order."""
    return [
        config_params(name, policy, predictor, tus)
        for name in WORKLOAD_NAMES
        for policy in POLICIES
        for predictor in PREDICTORS
        for tus in THREAD_UNITS
    ]


def prior_configs() -> List[Dict[str, Any]]:
    """Configs of the prior sweep the base cache holds: every workload,
    policy and value predictor at the default 16 thread units.

    The sweep also leaves every (workload, predictor) baseline in the
    cache, so an executed job runs one simulation, whichever it is.
    """
    return [c for c in all_configs() if "num_thread_units" not in c["overrides"]]


def config_key(params: Dict[str, Any]) -> str:
    """Canonical string key of one config."""
    return json.dumps(params, sort_keys=True)


def executed_configs(per_pair: int) -> List[Dict[str, Any]]:
    """The configs a run executes: ``per_pair`` for every (workload,
    value predictor) pair, spread over the thread-unit counts 2, 4 and 8
    with the policies alternating, so every run does the same work."""
    chosen = []
    for index, (name, predictor) in enumerate(
        (name, predictor) for name in WORKLOAD_NAMES for predictor in PREDICTORS
    ):
        options = [
            config_params(name, POLICIES[(index + k) % 2], predictor, (2, 4, 8)[k % 3])
            for k in range(6)
        ]
        chosen.extend(options[:per_pair])
    return chosen


def schedule(seed: int, seconds: float) -> List[Tuple[float, Dict[str, Any], str]]:
    """Seeded open-loop schedule: ``(offset_s, params, kind)`` per request.

    ``kind`` is ``fresh`` (a config not answered before, which executes)
    or ``prior`` (a config the prior sweep cached, answered by the cache
    probe).  The fresh configs are :func:`executed_configs` — enough for
    about :data:`EXEC_RATE` over ``seconds`` and at least
    :data:`MIN_PER_PAIR` per pair, so ``job_p90_ms`` always has ten jobs
    beyond it.  :data:`REPEAT_SHARE` of the requests are prior configs.
    The seed sets the order, which prior configs repeat, and the arrival
    times: they span ``seconds``, each gap the mean gap times a seeded
    uniform factor in [0.5, 1.5).
    """
    rng = random.Random(seed)
    pairs = len(WORKLOAD_NAMES) * len(PREDICTORS)
    per_pair = max(MIN_PER_PAIR, int(EXEC_RATE * seconds / pairs))
    fresh = [(params, "fresh") for params in executed_configs(min(per_pair, 6))]
    # Each prior config is repeated once before any is repeated twice, so
    # at --seconds 30 every repeat is a cache-probe answer, not a dedup.
    prior = prior_configs()
    rng.shuffle(prior)
    repeats = round(len(fresh) * REPEAT_SHARE / (1.0 - REPEAT_SHARE))
    requests = fresh + [(prior[i % len(prior)], "prior") for i in range(repeats)]
    rng.shuffle(requests)
    gap = max(seconds, len(fresh) / EXEC_RATE) / len(requests)
    offset = 0.0
    timed: List[Tuple[float, Dict[str, Any], str]] = []
    for params, kind in requests:
        offset += gap * rng.uniform(0.5, 1.5)
        timed.append((offset, params, kind))
    return timed


# ----------------------------------------------------------------------
# HTTP and daemon plumbing.
# ----------------------------------------------------------------------


class Client:
    """HTTP/JSON client of one daemon: one connection per request.

    A kept-alive connection would add the 40 ms delayed-ACK stall that
    the daemon's separate header and body writes provoke.  The program's
    own ``ServeClient`` would do, but importing it loads the engine into
    the generator, whose size is a floor under the daemon's peak RSS.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        """Send one request; returns ``(status, decoded body)``."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read().decode()
        finally:
            conn.close()
        try:
            return resp.status, json.loads(raw)
        except ValueError:
            return resp.status, raw


class Daemon:
    """One ``repro serve`` subprocess on a state and cache directory."""

    def __init__(self, state_dir: Path, cache_dir: Path) -> None:
        self.state_dir = state_dir
        endpoint = state_dir / "endpoint.json"
        if endpoint.exists():
            endpoint.unlink()
        state_dir.mkdir(parents=True, exist_ok=True)
        self.log = open(state_dir.parent / f"{state_dir.name}.log", "ab")
        launched = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(state_dir), "--cache-dir", str(cache_dir)],
            env=common.child_env(),
            cwd=str(common.ROOT),
            stdout=self.log,
            stderr=self.log,
        )
        self.rusage: Any = None
        try:
            self.client = self._connect(endpoint, launched + START_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        #: Launch and ``/healthz`` answer times (``time.time()``).
        self.launched, self.up = launched, time.time()
        self.setup_s = self.up - launched

    def _connect(self, endpoint: Path, deadline: float) -> "Client":
        """Wait for the advertised endpoint, then for ``/healthz`` to answer."""
        while not endpoint.exists():
            self._alive_before(deadline)
            time.sleep(0.005)
        info = json.loads(endpoint.read_text())
        client = Client(info["host"], int(info["port"]))
        while True:
            try:
                if client.request("GET", "/healthz")[0] == 200:
                    return client
            except OSError:
                pass
            self._alive_before(deadline)
            time.sleep(0.005)

    def _alive_before(self, deadline: float) -> None:
        if self.proc.poll() is not None or time.time() > deadline:
            raise RuntimeError("serve daemon did not come up")

    def drain(self) -> int:
        """Drain through the API and reap the process; returns its exit code."""
        try:
            self.client.request("POST", "/admin/drain")
        except OSError:
            pass
        return self.reap(FINISH_TIMEOUT_S)

    def reap(self, timeout: float) -> int:
        """Wait for the process (killing it past ``timeout``); keep its rusage."""
        deadline = time.time() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.time() > deadline:
                self.proc.send_signal(signal.SIGKILL)
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        return self.proc.returncode

    def kill(self) -> None:
        """Hard-stop the daemon if it still runs; close its log.

        A job process it leaves behind ends with its one attempt, when it
        finds the result pipe closed.
        """
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            self.reap(10.0)
        self.log.close()


_COUNTER = re.compile(r"^(repro_serve_[a-z_]+_total)(\{[^}]*\})?\s+([0-9.eE+-]+)$")


def counters(text: str) -> Dict[str, float]:
    """Sum each ``*_total`` counter of a Prometheus exposition over labels."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        match = _COUNTER.match(line.strip())
        if match:
            totals[match.group(1)] = totals.get(match.group(1), 0.0) + float(match.group(3))
    return totals


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def run_serve(
    seed: int,
    seconds: float,
    run_dir: Path,
    base_dir: Path,
    checker: common.Checker,
) -> Dict[str, Any]:
    """Run the mix once; returns the raw observations for the metrics."""
    from batch import link_tree

    expected = common.load_expected("serve")
    cache_dir = run_dir / "cache"
    link_tree(base_dir, cache_dir)
    daemons: List[Daemon] = []
    # The generator samples the host on each CPU in turn (the daemon's
    # jobs run on all of them), timing each reference run in thread CPU
    # time so that waiting behind the daemon's processes does not read
    # as a slow host.  It samples only between its sends, and samples
    # that overlap a job are dropped below: the host speed must not
    # depend on the program's own load.
    probe = common.SpeedProbe(time.thread_time, time.time, spread_cpus=True)
    try:
        for index in range(SETUP_LAUNCHES):
            for _ in range(SETUP_SAMPLES):
                probe.sample()
            daemons.append(Daemon(run_dir / f"state{index}", cache_dir))
            if index < SETUP_LAUNCHES - 1:
                daemons[-1].drain()
        daemon = daemons[-1]
        obs = _drive(daemon, schedule(seed, seconds), expected, checker, probe)
        probe.drop_during([
            (job["submitted_at"], job["finished_at"] or time.time())
            for job in obs["jobs"].values()
        ])
        # Each time is scaled by the host speed sampled around it.
        for send in obs["sends"]:
            job = send.get("job")
            send["speed"] = probe.speed_near(
                send["due"], (job and job["finished_at"]) or send["received"]
            )
        obs["setup"] = [d.setup_s for d in daemons]
        obs["setup_nominal"] = [
            d.setup_s * probe.speed_near(d.launched, d.up) for d in daemons
        ]
        obs["metrics"] = counters(str(daemon.client.request("GET", "/metrics")[1]))
        obs["journal_kb"] = (daemon.state_dir / "journal.jsonl").stat().st_size / 1024.0
        checker.check(daemon.drain() == 0, "serve daemon did not drain cleanly")
        obs["rss_mb"] = daemon.rusage.ru_maxrss / 1024.0
        _audit(daemon.state_dir, cache_dir, obs["jobs"], daemons, checker)
        return obs
    finally:
        for daemon in daemons:
            daemon.kill()


def _drive(
    daemon: Daemon,
    requests: List[Tuple[float, Dict[str, Any], str]],
    expected: Dict[str, Any],
    checker: common.Checker,
    probe: common.SpeedProbe,
) -> Dict[str, Any]:
    """Send the schedule open loop, wait for every job, check every output.

    While the next send is more than :data:`SAMPLE_ROOM_S` away, the
    generator takes a host-speed sample every ``PROBE_INTERVAL_S``.
    """
    client = daemon.client
    sends: List[Dict[str, Any]] = []
    start = time.time() + 0.1
    for offset, params, kind in requests:
        due = start + offset
        while due - time.time() > SAMPLE_ROOM_S:
            probe.sample()
            room = due - time.time() - SAMPLE_ROOM_S
            time.sleep(max(0.0, min(common.PROBE_INTERVAL_S, room)))
        pause = due - time.time()
        if pause > 0:
            time.sleep(pause)
        sent = time.time()
        status, body = client.request("POST", "/jobs", {"runner": "simulate", "params": params})
        received = time.time()
        ok = checker.check(
            status in (200, 202) and isinstance(body, dict) and "id" in body,
            f"submit {config_key(params)} answered {status}: {body}",
        )
        sends.append({
            "due": due, "sent": sent, "received": received, "kind": kind,
            "params": params, "ok": ok,
            "id": body.get("id") if ok else None,
            "outcome": body.get("outcome") if ok else None,
        })
    deadline = time.time() + FINISH_TIMEOUT_S
    while True:
        counts = client.request("GET", "/healthz")[1]["jobs"]
        if not counts.get("queued") and not counts.get("running"):
            break
        if time.time() > deadline:
            break
        time.sleep(0.02)
    jobs = {job["id"]: job for job in client.request("GET", "/jobs")[1]["jobs"]}
    for send in sends:
        if not send["ok"]:
            continue
        job = jobs.get(send["id"])
        status, body = client.request("GET", f"/jobs/{send['id']}/result")
        want = expected["payloads"].get(config_key(send["params"]))
        checker.check(
            job is not None and job["state"] == "done" and status == 200
            and body.get("result") == want,
            f"job {send['id']} ({config_key(send['params'])}) is "
            f"{job and job['state']} or differs from the recorded payload",
        )
        send["job"] = job
    return {"sends": sends, "jobs": jobs}


def _audit(
    state_dir: Path,
    cache_dir: Path,
    jobs: Dict[str, Any],
    daemons: List[Daemon],
    checker: common.Checker,
) -> None:
    """Exactly-once audit: restart on the drained journal and inspect it."""
    daemon = Daemon(state_dir, cache_dir)
    daemons.append(daemon)
    health = daemon.client.request("GET", "/healthz")[1]
    counts = health["jobs"]
    recovery = health["recovery"]
    checker.check(
        counts.get("done", 0) == len(jobs) == sum(counts.values())
        and recovery["duplicate_finishes"] == 0
        and recovery["requeued"] == 0,
        f"exactly-once audit failed: jobs {counts}, recovery {recovery}",
    )
    daemon.drain()


def e2e_metrics(obs: Dict[str, Any], nominal: bool = True) -> Dict[str, float]:
    """End-to-end metrics of one serve_mix run.

    With ``nominal`` (the reported values) every time is scaled by the
    host speed the generator's probe sampled while it ran; without it
    the raw wall times are returned, for reference.
    """
    executed, _ = _split(obs["sends"])

    def speed(send: Dict[str, Any]) -> float:
        return send["speed"] if nominal else 1.0

    latency = [(s["job"]["finished_at"] - s["due"]) * speed(s) for s in executed]
    p90 = common.tail_percentile(latency, 90)
    if p90 is None:
        raise RuntimeError(f"{len(latency)} executed jobs are too few for a p90")
    insts = common.load_expected("serve")["insts"]
    run_s = sum(
        (s["job"]["finished_at"] - s["job"]["started_at"]) * speed(s)
        for s in executed
    )
    kinsts = sum(insts[s["params"]["name"]] for s in executed) / 1000.0
    return {
        "sim_kips": kinsts / run_s,
        "job_p50_ms": common.percentile(latency, 50) * 1000.0,
        "job_p90_ms": p90 * 1000.0,
        "peak_rss_mb": obs["rss_mb"],
        "setup_s": common.median(obs["setup_nominal" if nominal else "setup"]),
    }


def _split(sends: List[Dict[str, Any]]) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Checked sends split into executed jobs and hits (probe or dedup)."""
    good = [s for s in sends if s["ok"] and s.get("job")]
    executed = [s for s in good if s["outcome"] == "accepted"]
    hits = [s for s in good if s["outcome"] in ("cached", "dedup")]
    return executed, hits


def layer_metrics(obs: Dict[str, Any]) -> Dict[str, float]:
    """Serve-layer values from the public API (and the load generator).

    Times are at nominal host speed, like the end-to-end ones; the
    generator's lateness is a validity check and stays raw.
    """
    executed, hits = _split(obs["sends"])
    hit = [(s["received"] - s["due"]) * s["speed"] for s in hits]
    queue = [
        (s["job"]["started_at"] - s["job"]["submitted_at"]) * s["speed"] for s in executed
    ]
    run = [(s["job"]["finished_at"] - s["job"]["started_at"]) * s["speed"] for s in executed]
    late = [s["sent"] - s["due"] for s in obs["sends"]]
    submit = [(s["received"] - s["sent"]) * s["speed"] for s in obs["sends"] if s.get("job")]
    total = sum(s["job"]["finished_at"] - s["due"] for s in executed)
    before_submit = sum(s["job"]["submitted_at"] - s["due"] for s in executed)
    counts = obs["metrics"]
    queue_p90 = common.tail_percentile(queue, 90)
    return {
        "serve.hit_p50_ms": common.percentile(hit, 50) * 1000.0,
        "serve.submit_p50_ms": common.percentile(submit, 50) * 1000.0,
        "serve.queue_p50_ms": common.percentile(queue, 50) * 1000.0,
        "serve.queue_p90_ms": (queue_p90 or 0.0) * 1000.0,
        "serve.run_p50_ms": common.percentile(run, 50) * 1000.0,
        "serve.probe_hits": counts.get("repro_serve_cache_served_total", 0.0),
        "serve.deduped": counts.get("repro_serve_jobs_deduped_total", 0.0),
        "serve.rejected": counts.get("repro_serve_jobs_rejected_total", 0.0),
        "serve.retries": counts.get("repro_serve_job_retry_attempts_total", 0.0),
        "serve.journal_kb": obs["journal_kb"],
        "loadgen.late_p99_ms": common.percentile(late, 99) * 1000.0,
        "trace.other_pct": 100.0 * before_submit / total if total else 0.0,
        "trace.overhead_pct": 0.0,
    }


def prior_sweep(cache_dir: str) -> None:
    """Run the prior sweep through the engine into ``cache_dir``."""
    from repro.experiments.engine import ParallelEngine, Point

    points = [
        Point(key=config_key(params), runner="simulate", params=params)
        for params in prior_configs()
    ]
    outcomes = ParallelEngine(jobs=1, cache_dir=cache_dir).run(points)
    failed = [key for key, outcome in outcomes.items() if not outcome.ok]
    if failed:
        raise RuntimeError(f"prior sweep failed on {failed[:3]}")


if __name__ == "__main__":
    prior_sweep(sys.argv[1])
