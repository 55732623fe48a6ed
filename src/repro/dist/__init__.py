"""Distributed execution: pluggable backends for the parallel engine.

The package splits "what to run" (the engine's sweep points) from "how
to run it" (a :class:`~repro.dist.backend.Backend`): ``serial`` runs
points in the calling process (the ``jobs=1`` path), ``process`` runs
them in local job processes (:class:`~repro.dist.backend.JobProcess`,
the serve pool's too), and ``remote`` drives a socket-connected worker
fleet with work stealing and a shared artifact cache.  See
``docs/distributed.md`` for the protocol contract and the runbook.

Import from the submodules (:mod:`repro.dist.backend`,
:mod:`repro.dist.coordinator`, ...): the package imports nothing, so a
``jobs=1`` sweep and the serve daemon, which load
:mod:`repro.dist.backend`, do not pay for the socket layer.
"""
