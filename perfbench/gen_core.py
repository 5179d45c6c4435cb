"""Seeded core-language (MIX) program generator with planted verdicts.

Each program is a chain of let-bound typed and symbolic blocks over
integer free variables x0..x{n-1} (declared in Gamma). Planted symbolic
blocks hide an ill-typed branch `(1 + true)` behind a guard the
generator chooses (paper section 2, Theorem 1):

- an infeasible guard (unsatisfiable over the integers): symbolic
  execution never takes the branch, so MIX must accept;
- a feasible guard: the branch runs on some path, so MIX must reject,
  reporting the `+` of that branch.

The checker stops at its first error, so a rejected program plants
exactly one feasible guard, in its last planted block; every program has
the same shape and does the same work up to that point. The answers are
decided here, by construction, never by running `mixcheck`.

Literals are emitted non-negative: the core parser has no unary minus.
"""

import random

ILL_TYPED = "(1 + true)"


def infeasible_guard(rng, xs):
    """A guard no integer assignment satisfies."""
    a, b, c = rng.sample(xs, 3)
    k, j = rng.randint(1, 9), rng.randint(0, 9)
    return rng.choice([
        f"{a} < {b} and {b} < {a}",
        f"{a} + {k} <= {a}",
        f"{a} < {b} and {b} < {c} and {c} < {a}",
        f"{a} = {b} + {k} and {b} = {a} + {j}",
        f"{c} < {b} and ({a} < {b} and {b} <= {a})",
    ])


def feasible_guard(rng, xs):
    """A guard some integer assignment satisfies."""
    a, b, c = rng.sample(xs, 3)
    k = rng.randint(1, 9)
    return rng.choice([
        f"{a} < {b}",
        f"{a} + {k} = {b} and {b} < {c}",
        f"{a} < {b} and {b} < {c} and {k} <= {c}",
    ])


class CoreProgram:
    def __init__(self, source, variables, accepted, error_at):
        self.source = source
        self.variables = variables  # Gamma: names, all of type int
        self.accepted = accepted
        self.error_at = error_at  # (line, column) of the planted error


def program(seed, blocks=48, nvars=8, reject=None):
    """One program of `blocks` let-bound blocks. `reject` plants a
    feasible guard in the last planted block (default: seeded coin)."""
    rng = random.Random(seed)
    xs = [f"x{i}" for i in range(nvars)]
    if reject is None:
        reject = rng.random() < 0.5
    lines = ["let r = ref 0 in"]
    prev = "x0"
    planted = [i for i in range(blocks) if i % 3 == 0]
    error_at = None
    for i in range(blocks):
        a, b, c = rng.sample(xs, 3)
        k = rng.randint(1, 9)
        head = f"let v{i} = "
        if i in planted:
            last = i == planted[-1]
            guard = (feasible_guard if reject and last
                     else infeasible_guard)(rng, xs + [prev])
            body = (f"{{s if {guard} then {ILL_TYPED} else "
                    f"(if {a} < {prev} then {{t {prev} + {k} t}} "
                    f"else {b} + {k}) s}}")
            if reject and last:
                col = len(head) + body.index(ILL_TYPED) + 4
                error_at = (len(lines) + 1, col)
        elif i % 3 == 1:
            body = (f"{{t let y = {{s if {a} < {b} then "
                    f"(if {b} < {c} then {a} + {prev} else {c}) "
                    f"else {b} + {k} s}} in y + {prev} t}}")
        else:
            body = f"(r := !r + {prev}; {prev} + {k})"
        lines.append(f"{head}{body} in")
        prev = f"v{i}"
    lines.append(f"!r + {prev}")
    return CoreProgram("\n".join(lines) + "\n", xs, not reject, error_at)
