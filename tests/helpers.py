"""Test-only references and lookups the package itself does not need."""

from adtxn import history as hist
from adtxn import manager
from adtxn.history import History
from adtxn.manager import ManagerInvariantError
from adtxn.oracles import _Replayer
from adtxn.workload import ObjectDecl, TxnDecl, Workload


def replay_history(workload: Workload, history: History) -> dict[str, object]:
    """Reconstruct all monitors from the event stream; raises on any drift.
    Returns the final states."""
    return _Replayer(workload).replay(history).final_states


def count_kind(history: History, kind: str) -> int:
    """How many of `history`'s events are of `kind`."""
    return sum(e.kind == kind for e in history)


def undo_oldest_first(rec):
    """`manager.abort_plan` without the `reversed`: a planted fault that
    undoes a txn's effects oldest first. The engine and the history replay
    erase a txn through the same plan, so only the serial replay sees it."""
    plan = [(hist.WITHDRAW, *rec.blocked_on, None)] if rec.blocked_on else []
    plan += [(hist.INVERSE, u.obj, u.inv, u.call) for u in rec.undo]
    undone = {u.inv.id for u in rec.undo}
    plan += [(manager.RELEASE, obj, inv, None) for obj, inv in rec.release_order()
             if inv.id not in undone]
    return plan


def waits_for_graph(txns) -> dict[int, set[int]]:
    """The whole waits-for graph of `txns`, each with `id` and `blocked_on`,
    derived afresh: the reference for the rooted walk, `waits_for_edges`,
    that the engine and the history replay share.

    A blocked transaction waits for the owners of every invocation its
    blocked one is blocked by, each live on the same object.
    """
    adj: dict[int, set[int]] = {}
    for txn in txns:
        if txn.blocked_on is None:
            continue
        obj, w = txn.blocked_on
        owners = {obj.live[b].txn for b in obj.blocked_by[w.id]}
        if txn.id in owners:
            raise ManagerInvariantError(f"self-edge on {txn.id} in waits-for graph")
        adj[txn.id] = owners
    return adj


def object_decl(workload: Workload, name: str) -> ObjectDecl:
    return next(o for o in workload.objects if o.name == name)


def txn_decl(workload: Workload, name: str) -> TxnDecl:
    return next(t for t in workload.txns if t.name == name)
