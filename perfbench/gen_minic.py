"""Seeded mini-C program generator with planted null-checking answers.

Every program is emitted as source text by this module; the expected
warning set is decided here, by construction, and never by running the
analyses under test (paper section 4.5):

- a genuine null flow into a `nonnull` parameter must warn;
- a null-guarded flow inside a MIX(symbolic) function must not;
- flows that carry only non-null pointers must not.

A warning is identified by the nonnull position it names, e.g.
"param p of sink_t3", which is how `mixyc` words MIX401 warnings. Each
module owns its sink, so modules never share a planted answer.
"""

import random

# The section 4.5 case studies (cases 1, 3 and 4), annotated as in the
# paper: every null flow in them is either guarded or overwritten on all
# paths that symbolic execution can see, so they plant no warning.
VSFTPD = """\
struct sockaddr { int sa_family; };
struct hostent { int h_addrtype; };
void sysutil_free(void * nonnull p_ptr) MIX(typed);
void die(char *p_msg) MIX(typed);
char *tunable_pasv_address;
struct sockaddr *g_addr;
void sockaddr_clear(struct sockaddr ** nonnull p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free((void*)*p_sock);
    *p_sock = NULL;
  }
}
void dns_clear(struct sockaddr ** nonnull p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free((void*)*p_sock);
    *p_sock = NULL;
  }
}
struct hostent *gethostbyname(char *p_name) {
  struct hostent *hent = (struct hostent*) malloc(sizeof(struct hostent));
  if (hent->h_addrtype != 2) { hent->h_addrtype = 10; }
  return hent;
}
void sockaddr_alloc(struct sockaddr ** nonnull p_sock) {
  *p_sock = (struct sockaddr*) malloc(sizeof(struct sockaddr));
}
void dns_resolve(struct sockaddr ** nonnull p_sock, char *p_name) {
  struct hostent *hent = gethostbyname(p_name);
  dns_clear(p_sock);
  if (hent->h_addrtype == 2) { sockaddr_alloc(p_sock); }
  else { if (hent->h_addrtype == 10) { sockaddr_alloc(p_sock); }
  else { die("gethostbyname(): neither IPv4 nor IPv6"); } }
}
void main_BLOCK(struct sockaddr ** nonnull p_sock) MIX(symbolic) {
  *p_sock = NULL;
  dns_resolve(p_sock, tunable_pasv_address);
}
void (*s_exit_func)(void);
void sysutil_exit_BLOCK(void) MIX(typed) {
  if (s_exit_func != NULL) { (*s_exit_func)(); }
}
void sysutil_exit(int exit_code) MIX(symbolic) { sysutil_exit_BLOCK(); }
"""

VSFTPD_MAIN = """\
  struct sockaddr *p_addr;
  sockaddr_clear(&g_addr);
  main_BLOCK(&p_addr);
  sysutil_free((void*)p_addr);
  sysutil_exit(0);
"""

# Shared pointer consumers: every typed module routes its never-null
# pointer through them, which couples the qualifier and points-to graphs
# across modules. Only never-null pointers reach them: the points-to
# analysis makes everything passed to one parameter may-alias, and the
# qualifier system gives may-aliased pointers one qualifier, so a single
# null argument would put every module's chain on a null flow.
UTIL = """\
int util_peek(int *p) { if (p != NULL) { return *p; } return 0; }
int util_both(int *p, int *r) { return util_peek(p) + util_peek(r); }
"""


class TypedModule:
    """A typed helper chain ending in a nonnull sink.

    `null_src` makes the chain's source return NULL, a genuine null flow
    into the sink (planted warning); otherwise the chain carries the
    address of a global (planted silence). `bias` is an edit-only
    constant that changes code but not the answer.
    """

    def __init__(self, idx, null_src, bias):
        self.idx, self.null_src, self.bias = idx, null_src, bias

    def sink(self):
        return f"param p of sink_t{self.idx}"

    def source(self):
        k = self.idx
        ret = "NULL" if self.null_src else "p"
        return (
            f"void sink_t{k}(int * nonnull p) MIX(typed);\n"
            f"int g_t{k};\n"
            f"int *t{k}_src(int *p) {{ return {ret}; }}\n"
            f"void t{k}_run(int *p) {{\n"
            f"  int *q = t{k}_src(p);\n"
            f"  int v = util_both(p, &g_t{k}) + {self.bias};\n"
            f"  if (v >= 0) {{ sink_t{k}(q); }}\n"
            f"}}\n")

    def main_calls(self):
        # util_both reads g_t<k> (zero) twice, so v is bias >= 0 and the
        # sink call is reached on the concrete run.
        return f"  t{self.idx}_run(&g_t{self.idx});\n"

    def expected(self):
        return {self.sink()} if self.null_src else set()


class SymbolicModule:
    """A MIX(symbolic) function with a branch cascade over symbolic ints,
    a loop over a may-be-null pointer, and a typed call chain.

    The function is called once with NULL and once with a global's
    address. When `guarded`, the sink call sits behind `q != NULL`, so no
    path passes NULL (planted silence, the flow typing alone would
    report). Otherwise the sink call sits behind `a0 > a1`, which the NULL
    call's concrete arguments satisfy: a genuine null flow (planted
    warning).
    """

    def __init__(self, idx, guarded, depth, loop):
        self.idx, self.guarded = idx, guarded
        self.depth, self.loop = depth, loop

    def sink(self):
        return f"param p of sink_s{self.idx}"

    def source(self):
        k, d = self.idx, self.depth
        params = ", ".join(f"int a{i}" for i in range(d))
        lines = [
            f"void sink_s{k}(int * nonnull p) MIX(typed);",
            f"int g_s{k};",
            f"int *s{k}_src(int *p) {{ return p; }}",
            f"int *s{k}_mid(int *p) {{ return s{k}_src(p); }}",
            f"int s{k}_pick(int a, int *w) {{ if (a > 2) {{ "
            f"if (w != NULL) {{ return *w; }} }} return 0; }}",
            f"void s{k}_use(int *p, {params}) MIX(symbolic) {{",
            "  int acc = 0;",
        ]
        for i in range(d):
            prev = f"a{i - 1}" if i else "0"
            lines.append(f"  if (a{i} > {prev}) {{ acc = acc + {i + 1}; }} "
                         f"else {{ acc = acc - {i + 1}; }}")
        lines += [
            f"  int *q = s{k}_mid(p);",
            "  int i = 0;",
            f"  while (i < {self.loop}) {{ acc = acc + s{k}_pick(i + a0, q); "
            "i = i + 1; }",
        ]
        if self.guarded:
            lines.append(f"  if (q != NULL) {{ if (acc > 1) {{ sink_s{k}(q); "
                         "} }")
        else:
            lines.append(f"  if (a0 > a1) {{ sink_s{k}(q); }}")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def main_calls(self):
        k = self.idx
        args = ", ".join(str(5 - i if i < 2 else i) for i in range(self.depth))
        return (f"  s{k}_use(NULL, {args});\n"
                f"  s{k}_use(&g_s{k}, {args});\n")

    def expected(self):
        return set() if self.guarded else {self.sink()}


class Program:
    """A generated program: modules in seeded order plus `main`."""

    def __init__(self, modules):
        self.modules = modules

    def source(self):
        parts = [VSFTPD, UTIL]
        parts += [m.source() for m in self.modules]
        parts.append("int main(void) {\n")
        parts.append(VSFTPD_MAIN)
        parts += [m.main_calls() for m in self.modules]
        parts.append("  return 0;\n}\n")
        return "".join(parts)

    def expected(self):
        out = set()
        for m in self.modules:
            out |= m.expected()
        return frozenset(out)

    def edit(self, rng):
        """One-function edit of a typed module: flips its source between
        NULL and a pass-through (a planted answer change) or moves its
        bias constant (same answer). Returns the edited function name."""
        typed = [m for m in self.modules if isinstance(m, TypedModule)]
        m = rng.choice(typed)
        if rng.random() < 0.5:
            m.null_src = not m.null_src
            return f"t{m.idx}_src"
        m.bias = (m.bias + rng.randint(1, 9)) % 50
        return f"t{m.idx}_run"


def symbolic_program(seed, typed=8, symbolic=3, depth=3, loop=2):
    """Solver-heavy program: `symbolic` MIX(symbolic) modules beside
    `typed` helper chains. Exactly one module of each kind plants a
    genuine null flow.

    The symbolic modules stay together, in index order, with the planted
    one in the middle; the seed places them among the shuffled typed
    modules. Their order is pinned because it moves the cost: each
    symbolic block runs slower than the one before it, so on identical
    counters a seed-chosen order changed the request time by up to 1.6x
    (see NOTES.md)."""
    rng = random.Random(seed)
    mods = [TypedModule(i, False, rng.randint(0, 40)) for i in range(typed)]
    syms = [SymbolicModule(i, True, depth, loop) for i in range(symbolic)]
    rng.choice(mods).null_src = True
    syms[symbolic // 2].guarded = False
    rng.shuffle(mods)
    at = rng.randint(0, len(mods))
    return Program(mods[:at] + syms + mods[at:])


def typed_program(seed, typed=100, symbolic=2, bugs=10):
    """Typed-heavy program for the daemon: many helper chains coupled
    through the shared utilities, few guarded symbolic blocks."""
    rng = random.Random(seed)
    mods = [TypedModule(i, False, rng.randint(0, 40)) for i in range(typed)]
    for m in rng.sample(mods, bugs):
        m.null_src = True
    mods += [SymbolicModule(i, True, 3, 2) for i in range(symbolic)]
    rng.shuffle(mods)
    return Program(mods)
