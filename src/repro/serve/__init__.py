"""``repro.serve`` -- the spectator read-replica serving layer.

PR 3 turned the process-worker protocol into an epoch-versioned
replication layer (:class:`~repro.env.sharding.ReplicaDelta` broadcasts,
snapshot catch-up, epoch acks).  This package carries that protocol
over one framed socket transport and serves *read-only queries* from
replicas, so heavy read traffic never touches the simulation process:

* :mod:`repro.serve.transport` -- :class:`SocketTransport`
  (length-prefix-framed messages over TCP or a private socketpair, with
  a protocol version byte and a max-frame-size guard), the one medium
  of decision workers, spectators and feed subscribers, plus the
  ``start_child`` / ``await_ready`` process bootstrap;
* :mod:`repro.serve.publisher` -- :class:`ReplicaPublisher`, the
  coordinator-side subscription feed the engine's publish stage drives:
  late joiners get a snapshot, live subscribers get the per-tick delta,
  and every fault path (stale epoch, dropped socket, bad peer) degrades
  to a snapshot or a dropped subscriber -- never a wedged publisher;
* :mod:`repro.serve.queries` -- :class:`QueryEngine`, the read-only
  query surface (compiled SGL aggregates, canned team counts / HP
  histograms, spatial k-NN) shared verbatim by the replica and the
  authoritative engine, which is what makes replica answers bit-exact;
* :mod:`repro.serve.spectator` -- the :class:`SpectatorReplica` server
  process (a replica of ``E`` plus a query engine whose indexes are
  rebuilt every epoch, answering queries pinned to a
  consistent tick epoch) and the :class:`SpectatorClient`
  request/response API.

Trust model: frames carry pickles, so the serving layer is for loopback
and trusted networks only.  The frame guard protects the *publisher
process* from malformed or oversized frames wedging it, not the
unpickling endpoint from hostile payloads.

Submodules load lazily (PEP 562): the worker pool imports
``repro.serve.transport`` while this package's heavier modules import
the engine, and eager re-exports would tie that knot into a cycle.
"""

from importlib import import_module

#: Public name -> defining submodule.
_EXPORTS = {
    "AuthoritativeQueryService": "queries",
    "FrameError": "transport",
    "PublisherStats": "publisher",
    "QueryAnswer": "queries",
    "QueryEngine": "queries",
    "QueryError": "queries",
    "QueryRequest": "queries",
    "ReplicaPublisher": "publisher",
    "SocketTransport": "transport",
    "SpectatorClient": "spectator",
    "SpectatorError": "spectator",
    "SpectatorReplica": "spectator",
    "TransportError": "transport",
    "unit_ref": "queries",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
