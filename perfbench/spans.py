"""Per-layer self time from a request's span list.

The program records spans (Chrome trace events: name, ts, dur, tid) but
no parent links, and its phase breakdown is inclusive: typecheck contains
fixpoint contains block-exec contains solver. Self time is recovered here
from the intervals alone: every instant of a thread's timeline belongs to
the innermost span covering it, which is each span's duration minus the
union of its children. Nested block spans (a typed block inside a
symbolic one, or the `phase.block-exec` twin the program records beside
every `*.block.*` span) map to one layer, so they merge instead of
counting twice. Time no span covers is the residual, reported rather than
hidden.

One correction comes from the inclusive phase table: solver queries that
the incremental assertion stack answers add to the `solver` phase but
record no span, so their time would read as block-execution self time.
The solver phase has no children, so its inclusive time is its self
time; the difference to the spanned solver time moves out of `exec`,
the layer those queries run under.
"""

# Span name -> layer. Unknown names land in "other".
LAYER = {
    "phase.parse": "parse",
    "phase.typecheck": "typecheck",
    "phase.fixpoint": "fixpoint",
    "mixy.round": "fixpoint",
    "engine.round": "fixpoint",
    "phase.block-exec": "exec",
    "mixy.block.sym": "exec",
    "mixy.block.typed": "exec",
    "mix.block.sym": "exec",
    "mix.block.typed": "exec",
    "phase.ir-lower": "ir",
    "phase.solver": "solver",
    "solver.query": "solver",
    "phase.render": "render",
}

LAYERS = ("parse", "typecheck", "fixpoint", "exec", "ir", "solver", "render",
          "other")


def self_times(events, solver_phase_us=0):
    """Returns ({layer: self microseconds}, covered microseconds) for one
    request's events and its inclusive `solver` phase time. Instant events
    (no duration) are ignored."""
    by_tid = {}
    for e in events:
        dur = e.get("dur")
        if e.get("ph", "X") != "X" or not dur:
            continue
        by_tid.setdefault(e.get("tid", 0), []).append(
            (e["ts"], e["ts"] + dur, LAYER.get(e["name"], "other")))
    out = dict.fromkeys(LAYERS, 0)
    covered = 0
    for spans in by_tid.values():
        cuts = sorted({t for s in spans for t in s[:2]})
        spans.sort()
        active, nxt = [], 0
        for lo, hi in zip(cuts, cuts[1:]):
            while nxt < len(spans) and spans[nxt][0] <= lo:
                active.append(spans[nxt])
                nxt += 1
            active = [s for s in active if s[1] > lo]
            if not active:
                continue
            inner = min(active, key=lambda s: (s[1] - s[0], -s[0]))
            out[inner[2]] += hi - lo
            covered += hi - lo
    unspanned = min(max(solver_phase_us - out["solver"], 0), out["exec"])
    out["solver"] += unspanned
    out["exec"] -= unspanned
    return out, covered
