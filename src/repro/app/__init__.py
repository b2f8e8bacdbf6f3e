"""Applications running on top of the replicated log.

ISS orders opaque request payloads; what they *mean* is the application's
business.  This package holds the reference application, run unchanged by
the live backend and by the simulator (``Deployment(app=KVApp)``): a
replicated key-value store
(:mod:`repro.app.kv`) whose operations are applied from the delivered
sequence on every replica, making the classic SMR argument concrete — the
same delivered prefix replayed through the same deterministic state
machine yields the same store everywhere.
"""

from .kv import KVApp, KVClient, KVResultMsg, KVStateMachine

__all__ = ["KVApp", "KVClient", "KVResultMsg", "KVStateMachine"]
