"""Integer-programming formulation of tiled QR over TT kernels.

Variables are task completion times (0 = never performed), measured in
half-weight units so the kernel durations become GEQRT 2, TTQRT 1,
UNMQR/TTMQR 3 (the formulation's gap constants match those).  The
triangularization time x_i_k is declared for i >= k only: the appendix
fixes the ones above the diagonal at 0, and no emitted row reads them.
The model is emitted in LP text format; simulator schedules map onto
assignments whose feasibility is checked constraint by constraint.  A row's
terms concatenate blocks built once per model: both orientations' finish
terms of a pair update or zeroing, alone or with their hats' big-M terms.
Term tuples are thus shared between rows, but each row owns its terms
list, so editing one row's list in place leaves every other row as it was.

Appendix rows that kept rows imply are not emitted; the feasible set over
the action variables is the same.  Group 5 is 1a-iii (r = i) with right
side T for T-3; group 6 is 1a-iv and 1b-ii (r = i) with 0 for D_GEQRT;
group 7, negated, is 1d-case2 with T for T-1.  Group 3 (x_r <= z_ij when
zhat_ij) follows from 1b-iii, c11zb and x_r <= T.  Other rows are sums of
kept rows, all variables being >= 0.  1a-i and 1a-ii are emitted for
consecutive panels only (l1 = l-1): 1a-i over l1 < l-1 sums the rows
l1+1 ... l, and 1a-ii over it is 1a-ii (l1+1 over l1, same i, j) plus that
chain.  1b-ii is emitted for the last panel only (l = k-1): below it,
1a-ii (head r, l+1 over l) plus 1a-iv (r, k, l+1) gives x_r >= y_ij +
y_ji + 5.  1a-v is 1b-iii (same row, same zeroing) plus 1a-iv (r, k, l);
1c-iv is 1b-iii (r, pair {h, r}) plus 1b-ii (r; i, j, k, l), y_ji >= 0
dropped.  total_time >= v is emitted for the last panel update of each
tile above the diagonal (w_i_k_i, i < k), the last column's
triangularizations and the zeroings only: each other action is followed,
no sooner than it ends, by an always-performed one (4a for x_i_k, k < q;
1a-iv for w_i_k_l, i >= k; the 1a-i chain for l < i < k; the kept 1b-ii
and 1a-ii rows for y).
The precedence block never binds: 4b, c11za and c11yb make its link hold,
its AND/OR gadgets then have a solution unless a pair update runs in both
orientations, and 1a-iii with 1b-ii already reject that.

Each 1c-iii and 1d-case1 disjunction has one binary (Manne's big-M
disjunction, 1960).  The appendix gives it two, row a relaxed by T*dl1
(dl5), row b by T*dl2 (dl6), and the row dl1 + dl2 <= 1.  That row gives
dl2 <= 1 - dl1, and raising dl2 to 1 - dl1 only relaxes row b, so setting
dl2 = 1 - dl1 keeps the feasible set over the action variables, in the LP
relaxation too: row b carries +T*dl1 with right side T more, and neither
the second binary nor the _or row is emitted.  A 1c-iii disjunction keyed
(h, s, o) is emitted only for h > o: the copy keyed (o, s, h) is the same
pair with dl1 ↦ 1 − dl1.

Group 4b corrects the appendix's row, which reads z_ij + z_ji <= y_ij,l +
y_ji,l: that orders only the finish times, so a pair update could run
alongside the zeroing whose transform it applies.  The emitted row adds
D_UPDATE*(zhat_ij + zhat_ji) to the left side: a performed zeroing ends
before the pair update starts.  The proofs above hold with the stronger row.

An optional processor-capacity block bounds the number of simultaneously
running kernels; without it the formulation is the unbounded-processor
problem.  The block is the time-indexed pulse formulation (Pritsker,
Watters & Wolfe 1969): a binary at_<var>_<t> per action of duration d and
finish time t in [d, T], so about A*T binaries for A actions; per action
the rows capfin (var = sum t*at) and capone (sum at = 1, or = hat for
pair updates and zeroings); per slot t the row cap_t (the pulses whose run
covers t sum to at most P).  That is 2*A + T rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from .qr import _check_shape
from .taskgraph import GEQRT, TTMQR, TTQRT, UNMQR, WeightModel

# kernel durations in half-weight units; UNMQR and TTMQR weigh the same
D_GEQRT, D_TTQRT, D_UPDATE = (WeightModel.QR[kind] // 2 for kind in (GEQRT, TTQRT, TTMQR))


@dataclass(slots=True)
class Constraint:
    name: str
    group: str
    terms: list          # (coef, var) pairs
    sense: str           # "<=", ">=", "="
    rhs: int


def _pair_terms(names, coef):
    """index -> [(coef, v), (coef, v')] for each variable v of a pair family,
    v' being v with the pair's two rows swapped; v and v' share the tuples."""
    terms = {t: (coef, v) for t, v in names.items()}
    return {t: [term, terms[(t[1], t[0]) + t[2:]]] for t, term in terms.items()}


def _check_positive_int(what, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive int, got {value!r}")


def _broken(rows, assignment):
    """The rows that the assignment breaks, in order; missing variables are 0."""
    get = assignment.get
    out = []
    for row in rows:
        lhs = 0
        for coef, var in row.terms:
            lhs += coef * get(var, 0)
        sense, rhs = row.sense, row.rhs
        if lhs > rhs if sense == "<=" else lhs < rhs if sense == ">=" else lhs != rhs:
            out.append(row)
    return out


class IPModel:
    """Appendix-style integer program for a p x q TT factorization with
    horizon T (half-weight units).

    The name tables w, x, y, yhat, z and zhat map each index tuple of a
    variable family's domain to the variable's name; they are built once
    and every row reads its names from them.  x is declared for i >= k
    only: no triangularization lies above the diagonal.  aux maps each
    auxiliary binary (dl1, dl5), in emission order, to the one row that
    bounds it from below, a <= row with a negative coefficient on it."""

    def __init__(self, p, q, horizon, capacity=None):
        _check_shape(p, q)
        _check_positive_int("horizon", horizon)
        if capacity is not None:
            _check_positive_int("capacity", capacity)
        self.p = p
        self.q = q
        self.T = horizon
        self.capacity = capacity
        self.w = {t: "w_%s_%s_%s" % t for t in self.w_tuples()}
        self.x = {t: "x_%s_%s" % t for t in self.x_tuples()}
        self.y = {t: "y_%s_%s_%s_%s" % t for t in self.y_tuples()}
        self.yhat = {t: "yhat_%s_%s_%s_%s" % t for t in self.y}
        self.z = {t: "z_%s_%s_%s" % t for t in self.z_tuples()}
        self.zhat = {t: "zhat_%s_%s_%s" % t for t in self.z}
        self.int_vars = dict.fromkeys(       # name -> upper bound
            [*self.w.values(), *self.x.values(), *self.y.values(), *self.z.values(),
             "total_time"], horizon)
        self.bin_vars = [*self.yhat.values(), *self.zhat.values()]
        self.aux = {}
        self.constraints = []
        self._build()

    # -- variable domains ---------------------------------------------------

    def w_tuples(self):
        for k in range(2, self.q + 1):
            for l in range(1, k):
                for i in range(l, self.p + 1):
                    yield i, k, l

    def x_tuples(self):
        for k in range(1, self.q + 1):
            for i in range(k, self.p + 1):
                yield i, k

    def y_tuples(self):
        for k in range(2, self.q + 1):
            for l in range(1, k):
                for i in range(l, self.p + 1):
                    for j in range(l, self.p + 1):
                        if i != j:
                            yield i, j, k, l

    def z_tuples(self):
        for k in range(1, self.q + 1):
            for i in range(k, self.p + 1):
                for j in range(k, self.p + 1):
                    if i != j:
                        yield i, j, k

    # -- construction --------------------------------------------------------

    def _build(self):
        p, q, T, aux = self.p, self.q, self.T, self.aux
        w, x, y, yhat, z, zhat = self.w, self.x, self.y, self.yhat, self.z, self.zhat
        cons, C = self.constraints, Constraint
        add = cons.append
        ru, rz = T - D_UPDATE, T - D_TTQRT
        # term blocks of each pair (a, b, ...): both orientations' finishes;
        # *off adds the hats' big-M terms, which switch a row off unless run
        yfin, ypos, yhats = _pair_terms(y, -1), _pair_terms(y, 1), _pair_terms(yhat, T)
        yoff = {t: b + yhats[t] for t, b in yfin.items()}
        zfin, zpos, zhats = _pair_terms(z, -1), _pair_terms(z, 1), _pair_terms(zhat, T)
        zoff = {t: b + zhats[t] for t, b in zfin.items()}
        zone = {t: b[::2] for t, b in zoff.items()}    # orientation (a, b) alone
        # 1a-i: updates of one tile from successive panels
        for k in range(2, q + 1):
            for l in range(2, k):
                for i in range(l, p + 1):
                    add(C("c1ai_%s_%s_%s_%s" % (i, k, l, l - 1), "1a-i",
                          [(1, w[i, k, l]), (-1, w[i, k, l - 1])], ">=", D_UPDATE))
        # 1a-ii: panel update follows the previous panel's pair updates of the tile
        for k in range(2, q + 1):
            for l in range(2, k):
                l1 = l - 1
                for i in range(l, p + 1):
                    head = (1, w[i, k, l])
                    for j in range(l1, p + 1):
                        if j != i:
                            add(C("c1aii_%s_%s_%s_%s_%s" % (i, j, k, l, l1), "1a-ii",
                                  [head, *yfin[i, j, k, l1]], ">=", D_UPDATE))
        # 1a-iii: panel update precedes the pair update of the same column
        for (i, j, k, l), off in yoff.items():
            if i < j:
                for r in (i, j):
                    add(C("c1aiii_%s_%s_%s_%s_%s" % (r, i, j, k, l), "1a-iii",
                          [(1, w[r, k, l]), *off], "<=", ru))
        # 1a-iv / 1b-i: update before triangularization
        for k in range(2, q + 1):
            for l in range(1, k):
                for i in range(k, p + 1):
                    add(C("c1aiv_%s_%s_%s" % (i, k, l), "1a-iv",
                          [(1, x[i, k]), (-1, w[i, k, l])], ">=", D_GEQRT))
        # 1b-ii: the last panel's pair updates before triangularization
        for (i, j, k, l), fin in yfin.items():
            if i < j and l == k - 1:
                for r in (i, j):
                    if r >= k:
                        add(C("c1bii_%s_%s_%s_%s_%s" % (r, i, j, k, l), "1b-ii",
                              [(1, x[r, k]), *fin], ">=", D_GEQRT))
        # 1b-iii: triangularization before zeroing
        for (i, j, k), off in zoff.items():
            if i < j:
                for r in (i, j):
                    add(C("c1biii_%s_%s_%s_%s" % (r, i, j, k), "1b-iii",
                          [(1, x[r, k]), *off], "<=", rz))
        # 1c-iii: pair updates involving a shared row are separated
        for k in range(2, q + 1):
            for l in range(1, k):
                kl = "_%s_%s" % (k, l)
                for i in range(l, p + 1):
                    for j in range(i + 1, p + 1):
                        for h in range(l, p + 1):
                            if h == i or h == j:
                                continue
                            for s, o in ((i, j), (j, i)):     # shared, other row
                                if h < o:       # the copy keyed (o, s, h) is kept
                                    continue
                                key = "_%s_%s_%s%s" % (h, s, o, kl)
                                d1 = "dl1" + key
                                # dl1 relaxes row a, 1 - dl1 row b
                                a = aux[d1] = C("c1ciii_a" + key, "1c-iii",
                                                [*ypos[o, s, k, l], *yoff[h, s, k, l], (-T, d1)],
                                                "<=", ru)
                                cons += a, C("c1ciii_b" + key, "1c-iii",
                                             [*ypos[h, s, k, l], *yoff[o, s, k, l], (T, d1)],
                                             "<=", ru + T)
        # 1d-d: zeroing actions sharing a pivot are separated
        for k in range(1, q + 1):
            for i in range(k, p + 1):            # pivot
                for j in range(k, p + 1):
                    for h in range(j + 1, p + 1):
                        if i in (j, h):
                            continue
                        key = "_%s_%s_%s_%s" % (h, i, j, k)
                        d5 = "dl5" + key
                        a = aux[d5] = C("c1d1_a" + key, "1d-case1",
                                        [zpos[j, i, k][0], *zone[h, i, k], (-T, d5)], "<=", rz)
                        cons += a, C("c1d1_b" + key, "1d-case1",
                                     [zpos[h, i, k][0], *zone[j, i, k], (T, d5)], "<=", rz + T)
        # 1d case 2: pivot duty precedes the pivot's own zeroing
        # (the formulation leaves the row-order of this case open; emitted for
        # all valid row triples)
        for k in range(1, q + 1):
            rows = range(k, p + 1)
            for i in rows:
                for j in rows:
                    for h in rows:
                        if len({i, j, h}) == 3:
                            add(C("c1d2_%s_%s_%s_%s" % (h, i, j, k), "1d-case2",
                                  [zpos[j, i, k][0], *zone[i, h, k]], "<=", rz))
        # 4a: triangularization forces updates in later columns
        for k in range(1, q):
            for i in range(k, p + 1):
                for l in range(k + 1, q + 1):
                    add(C("c4a_%s_%s_%s" % (i, k, l), "4a",
                          [(1, x[i, k]), (-1, w[i, l, k])], "<=", -D_UPDATE))
        # 4b: zeroing forces pair updates in later columns, which start
        # once it has finished
        for (i, j, k), done in zpos.items():
            if i < j:
                end = [(D_UPDATE, zhat[i, j, k]), (D_UPDATE, zhat[j, i, k])]
                for l in range(k + 1, q + 1):
                    add(C("c4b_%s_%s_%s_%s" % (i, j, k, l), "4b",
                          [*done, *yfin[i, j, l, k], *end], "<=", 0))
        # 8: triangularizations take two steps
        for (i, k), name in x.items():
            add(C("c8_%s_%s" % (i, k), "8", [(1, name)], ">=", D_GEQRT))
        # 9: every sub-diagonal tile is zeroed exactly once
        for k in range(1, q + 1):
            for i in range(k + 1, p + 1):
                add(C("c9_%s_%s" % (i, k), "9",
                      [(1, zhat[i, j, k]) for j in range(k, p + 1) if j != i], "=", 1))
        # 11: indicator forcing (rows named by the variable's index suffix)
        for names, fins, hats in ((y, yfin, yhats), (z, zfin, zhats)):
            for key, v in names.items():
                sfx, fin, hat = v[1:], fins[key][0], hats[key][0]
                add(C("c11%sa%s" % (v[0], sfx), "11", [(1, hat[1]), fin], "<=", 0))
                add(C("c11%sb%s" % (v[0], sfx), "11", [hat, fin], ">=", 0))
        self.bin_vars += aux
        # total_time bounds the actions that no always-performed action
        # follows: the last panel update of each tile above the diagonal, the
        # last column's triangularizations and the zeroings
        total = (1, "total_time")
        for name in chain([v for (i, k, l), v in w.items() if i == l],
                          [v for (i, k), v in x.items() if k == q], z.values()):
            add(C("obj_" + name, "objective", [total, (-1, name)], ">=", 0))
        if self.capacity is not None:
            self._capacity_block()

    def _actions(self):
        """(var, duration, hat) of every potentially running kernel; hat is
        None for the panel updates and triangularizations, which always run."""
        return ([(v, D_UPDATE, None) for v in self.w.values()]
                + [(v, D_GEQRT, None) for v in self.x.values()]
                + [(v, D_UPDATE, self.yhat[key]) for key, v in self.y.items()]
                + [(v, D_TTQRT, self.zhat[key]) for key, v in self.z.items()])

    def _capacity_block(self):
        T, P, add = self.T, self.capacity, self.constraints.append
        ts = [str(t) for t in range(T + 1)]
        # at_<var>_<t> = 1 iff the action finishes at t, so it runs in slots
        # t-dur+1..t (slot t is the interval (t-1, t]): the pulses of slot s
        # are those at indices max(s-dur, 0)..s-1 of the action's list
        spans = {d: [slice(max(s - d, 0), s) for s in range(1, T + 1)]
                 for d in {D_GEQRT, D_TTQRT, D_UPDATE}}
        slot_parts = []
        for var, dur, hat in self._actions():
            pre = "at_" + var + "_"
            pulses = [pre + t for t in ts[dur:]]
            self.bin_vars += pulses
            ones = list(zip(repeat(1), pulses))
            add(Constraint("capfin_" + var, "capacity",
                           [(1, var), *zip(range(-dur, -T - 1, -1), pulses)], "=", 0))
            add(Constraint("capone_" + var, "capacity", ones + [(-1, hat)] if hat else ones,
                           "=", 0 if hat else 1))
            slot_parts.append(map(ones.__getitem__, spans[dur]))
        for t, parts in enumerate(zip(*slot_parts), 1):
            add(Constraint("cap_%s" % t, "capacity", [*chain.from_iterable(parts)], "<=", P))

    # -- rendering ------------------------------------------------------------

    def render(self):
        lines = [f"\\ tiled QR IP: p={self.p} q={self.q} T={self.T}"
                 + (f" capacity={self.capacity}" if self.capacity is not None else ""),
                 "Minimize", " obj: total_time", "Subject To"]
        prefix = _Prefixes()
        for con in self.constraints:
            body = " ".join([prefix[coef] + var for coef, var in con.terms])
            if body.startswith("+ "):
                body = body[2:]
            lines.append(f" {con.name}: {body} {con.sense} {con.rhs}")
        names, ub = sorted(self.int_vars), self.int_vars
        lines.append("Bounds")
        lines += [f" 0 <= {name} <= {ub[name]}" for name in names]
        lines.append("Generals")
        lines += [" " + name for name in names]
        lines.append("Binaries")
        lines += [" " + name for name in self.bin_vars]
        lines.append("End\n")
        return "\n".join(lines)


class _Prefixes(dict):
    """coef -> the LP text before its variable ("+ ", "- ", "+ 16 "),
    formatted on first use."""

    def __missing__(self, coef):
        mag = abs(coef)
        text = self[coef] = f"{'+' if coef >= 0 else '-'} {'' if mag == 1 else f'{mag} '}"
        return text


def emit_ip(p, q, horizon, capacity=None) -> IPModel:
    return IPModel(p, q, horizon, capacity)


# ---------------------------------------------------------------------------
# schedules -> assignments

def schedule_to_assignment(graph, schedule) -> dict:
    """Map a TT-kernel schedule under `WeightModel.QR` to IP variable values
    (half-unit finish times) and the hats of the performed actions."""
    weights = WeightModel.qr_tt()
    assign = {}
    for t in graph.tasks:
        if t.kind not in (GEQRT, TTQRT, UNMQR, TTMQR):
            raise ValueError(f"IP model covers TT kernels only, found {t.kind}")
        _, start = schedule.assignment[t.id]
        fin = start + weights.of(t)
        if fin % 2:
            raise ValueError("finish times must be even in base units")
        half = fin // 2
        if t.kind == GEQRT:
            assign["x_%s_%s" % t.indices] = half
        elif t.kind == UNMQR:
            i, k, j = t.indices
            assign["w_%s_%s_%s" % (i, j, k)] = half
        elif t.kind == TTQRT:
            assign["z_%s_%s_%s" % t.indices] = half
            assign["zhat_%s_%s_%s" % t.indices] = 1
        else:
            i, piv, k, j = t.indices
            assign["y_%s_%s_%s_%s" % (i, piv, j, k)] = half
            assign["yhat_%s_%s_%s_%s" % (i, piv, j, k)] = 1
    assign["total_time"] = max(assign.values())
    return assign


def complete_assignment(model: IPModel, assign: dict) -> dict:
    """Fill in the auxiliaries implied by the action times: in order, each
    binary of `model.aux` is 0 if its row holds so, else 1.  Incoming pulse
    binaries are dropped and rederived: each action's pulse at its finish
    time is set to 1 if the model declares it (duration <= finish <= T),
    missing variables count as 0."""
    out = {v: x for v, x in assign.items() if not v.startswith("at_")}
    for var, row in model.aux.items():
        out[var] = 0
        if _broken((row,), out):
            out[var] = 1
    if model.capacity is not None:
        for var, dur, _ in model._actions():
            fin = out.get(var, 0)
            if dur <= fin <= model.T:
                out["at_%s_%s" % (var, fin)] = 1
    return out


class DomainViolation(NamedTuple):
    """An assignment entry that names no variable of the model, or whose
    value lies outside the domain that render() declares for it."""
    name: str
    group: str = "domain"


def check_feasible(model: IPModel, assignment: dict):
    """(verdict, violations).  Each entry of the assignment must lie in its
    variable's domain (generals in [0, ub], binaries in {0, 1}), else it is
    a DomainViolation.  Every row is then evaluated; missing variables
    count as 0."""
    ints, bins = model.int_vars, set(model.bin_vars)
    violated = []
    for name, value in assignment.items():
        if name in ints:
            ok = 0 <= value <= ints[name]
        else:
            ok = name in bins and value in (0, 1)
        if not ok:
            violated.append(DomainViolation(name))
    violated += _broken(model.constraints, assignment)
    return (not violated), violated


def parse_assignment(text) -> dict:
    """Parse 'name value' lines (integer values; blank and # lines are
    skipped).  A malformed line, or a name given twice, raises ValueError
    naming the line numbers."""
    assign, seen = {}, {}
    for no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, value = line.split()
            value = int(value)
        except ValueError:
            raise ValueError(f"assignment line {no} is not 'name integer': {line!r}") from None
        if name in seen:
            raise ValueError(f"assignment name {name!r} is given on lines {seen[name]} and {no}")
        seen[name] = no
        assign[name] = value
    return assign


def assignment_text(assign) -> str:
    return "\n".join(f"{k} {v}" for k, v in sorted(assign.items())) + "\n"
