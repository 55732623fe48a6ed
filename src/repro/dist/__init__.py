"""Distributed execution: pluggable backends for the parallel engine.

The package splits "what to run" (the engine's sweep points) from "how
to run it" (a :class:`~repro.dist.backend.Backend`): ``serial`` runs
points in the calling process (the ``jobs=1`` path), ``process`` fans
them across a local pool, and ``remote`` drives a socket-connected
worker fleet with work stealing and a shared artifact cache.  See
``docs/distributed.md`` for the protocol contract and the operations
runbook.

Import from the submodules (:mod:`repro.dist.backend`,
:mod:`repro.dist.coordinator`, :mod:`repro.dist.worker`, ...): the
package itself imports nothing, so a ``jobs=1`` sweep, which loads
:mod:`repro.dist.backend`, does not pay for the socket layer.
"""
