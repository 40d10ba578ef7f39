"""Integer-programming formulation of tiled QR over TT kernels.

Variables are task completion times (0 = never performed), measured in
half-weight units so the kernel durations become GEQRT 2, TTQRT 1,
UNMQR/TTMQR 3 (the formulation's gap constants match those).  The model is
emitted in LP text format; simulator schedules map onto assignments whose
feasibility is checked constraint by constraint.

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

from .taskgraph import GEQRT, TTMQR, TTQRT, UNMQR

D_GEQRT, D_TTQRT, D_UPDATE = 2, 1, 3


def _n(*parts):
    return "_".join(str(x) for x in parts)


@dataclass
class Constraint:
    name: str
    group: str
    terms: list          # (coef, var) pairs
    sense: str           # "<=", ">=", "="
    rhs: int

    def lhs_value(self, assignment):
        return sum(c * assignment.get(v, 0) for c, v in self.terms)

    def holds(self, assignment):
        lhs = self.lhs_value(assignment)
        if self.sense == "<=":
            return lhs <= self.rhs
        if self.sense == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


class IPModel:
    """Appendix-style integer program for a p x q TT factorization with
    horizon T (half-weight units)."""

    def __init__(self, p, q, horizon, capacity=None):
        if not (p >= q >= 1):
            raise ValueError("need p >= q >= 1")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if capacity is not None and (isinstance(capacity, bool)
                                     or not isinstance(capacity, int) or capacity < 1):
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        self.p = p
        self.q = q
        self.T = horizon
        self.capacity = capacity
        self.int_vars = {}     # name -> upper bound
        self.bin_vars = []
        self.fixed = {}        # name -> value
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
            for i in range(1, self.p + 1):
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

    def _rows_from(self, k):
        return range(k, self.p + 1)

    # -- construction --------------------------------------------------------

    def _ivar(self, name):
        self.int_vars[name] = self.T
        return name

    def _bvar(self, name):
        self.bin_vars.append(name)
        return name

    def _has(self, name):
        return name in self.int_vars or name in self.fixed

    def _con(self, name, group, terms, sense, rhs):
        live = [(c, v) for c, v in terms if v is not None]
        const = sum(c * self.fixed.get(v, 0) for c, v in live if v in self.fixed)
        live = [(c, v) for c, v in live if v not in self.fixed]
        self.constraints.append(Constraint(name, group, live, sense, rhs - const))

    def _ysum(self, i, j, k, l):
        """(terms, hat-terms) of y_{ijkl} + y_{jikl}, missing vars as 0."""
        terms, hats = [], []
        for a, b in ((i, j), (j, i)):
            v = _n("y", a, b, k, l)
            if self._has(v):
                terms.append((1, v))
                hats.append((1, _n("yhat", a, b, k, l)))
        return terms, hats

    def _zsum(self, i, j, k):
        terms, hats = [], []
        for a, b in ((i, j), (j, i)):
            v = _n("z", a, b, k)
            if self._has(v):
                terms.append((1, v))
                hats.append((1, _n("zhat", a, b, k)))
        return terms, hats

    def _build(self):
        p, q, T = self.p, self.q, self.T
        for i, k, l in self.w_tuples():
            self._ivar(_n("w", i, k, l))
        for i, k in self.x_tuples():
            if i < k:
                self.fixed[_n("x", i, k)] = 0   # can't triangularize above the diagonal
            else:
                self._ivar(_n("x", i, k))
        for i, j, k, l in self.y_tuples():
            self._ivar(_n("y", i, j, k, l))
            self._bvar(_n("yhat", i, j, k, l))
        for i, j, k in self.z_tuples():
            self._ivar(_n("z", i, j, k))
            self._bvar(_n("zhat", i, j, k))
        self._ivar("total_time")

        # 1a-i: updates of one tile from successive panels
        for k in range(2, q + 1):
            for l in range(2, k):
                for l1 in range(1, l):
                    for i in range(l, p + 1):
                        self._con(_n("c1ai", i, k, l, l1), "1a-i",
                                  [(1, _n("w", i, k, l)), (-1, _n("w", i, k, l1))],
                                  ">=", D_UPDATE)
        # 1a-ii: panel update follows earlier pair updates of the same tile
        for k in range(2, q + 1):
            for l in range(2, k):
                for l1 in range(1, l):
                    for i in range(l, p + 1):
                        for j in self._rows_from(l1):
                            if j == i:
                                continue
                            yterms, _ = self._ysum(i, j, k, l1)
                            if not yterms:
                                continue
                            self._con(_n("c1aii", i, j, k, l, l1), "1a-ii",
                                      [(1, _n("w", i, k, l))] + [(-c, v) for c, v in yterms],
                                      ">=", D_UPDATE)
        # 1a-iii: panel update precedes the pair update of the same column
        for i, j, k, l in self.y_tuples():
            if i > j:
                continue
            yterms, yhats = self._ysum(i, j, k, l)
            for r in (i, j):
                if not self._has(_n("w", r, k, l)):
                    continue
                terms = [(1, _n("w", r, k, l))] + [(-c, v) for c, v in yterms] + \
                        [(T, v) for _, v in yhats]
                self._con(_n("c1aiii", r, i, j, k, l), "1a-iii", terms, "<=", T - D_UPDATE)
        # 1a-iv / 1b-i: update before triangularization
        for k in range(2, q + 1):
            for l in range(1, k):
                for i in range(k, p + 1):
                    self._con(_n("c1aiv", i, k, l), "1a-iv",
                              [(1, _n("x", i, k)), (-1, _n("w", i, k, l))],
                              ">=", D_GEQRT)
        # 1a-v / 1d-a: update before zeroing of the same column
        for k in range(2, q + 1):
            for l in range(1, k):
                for i in range(k, p + 1):
                    for j in range(k, p + 1):
                        if i >= j:
                            continue
                        zterms, zhats = self._zsum(i, j, k)
                        for r in (i, j):
                            terms = [(1, _n("w", r, k, l))] + [(-c, v) for c, v in zterms] + \
                                    [(T, v) for _, v in zhats]
                            self._con(_n("c1av", r, i, j, k, l), "1a-v", terms, "<=", T - D_TTQRT)
        # 1b-ii: pair update before triangularization
        for i, j, k, l in self.y_tuples():
            if i > j:
                continue
            yterms, _ = self._ysum(i, j, k, l)
            for r in (i, j):
                if r < k:
                    continue
                self._con(_n("c1bii", r, i, j, k, l), "1b-ii",
                          [(1, _n("x", r, k))] + [(-c, v) for c, v in yterms],
                          ">=", D_GEQRT)
        # 1b-iii: triangularization before zeroing
        for i, j, k in self.z_tuples():
            if i >= j:
                continue
            zterms, zhats = self._zsum(i, j, k)
            for r in (i, j):
                terms = [(1, _n("x", r, k))] + [(-c, v) for c, v in zterms] + \
                        [(T, v) for _, v in zhats]
                self._con(_n("c1biii", r, i, j, k), "1b-iii", terms, "<=", T - D_TTQRT)
        # 1c-iii: pair updates involving a shared row are separated
        for k in range(2, q + 1):
            for l in range(1, k):
                rows = list(self._rows_from(l))
                for i in rows:
                    for j in rows:
                        if j <= i:
                            continue
                        for h in rows:
                            if h == i or h == j:
                                continue
                            for shared, other in ((i, j), (j, i)):
                                d1 = self._bvar(_n("dl1", h, shared, other, k, l))
                                d2 = self._bvar(_n("dl2", h, shared, other, k, l))
                                y1, h1 = self._ysum(other, shared, k, l)
                                y2, h2 = self._ysum(h, shared, k, l)
                                terms = [(c, v) for c, v in y1] + [(-c, v) for c, v in y2] + \
                                        [(T, v) for _, v in h2] + [(-T, d1)]
                                self._con(_n("c1ciii_a", h, shared, other, k, l), "1c-iii",
                                          terms, "<=", T - D_UPDATE)
                                terms = [(c, v) for c, v in y2] + [(-c, v) for c, v in y1] + \
                                        [(T, v) for _, v in h1] + [(-T, d2)]
                                self._con(_n("c1ciii_b", h, shared, other, k, l), "1c-iii",
                                          terms, "<=", T - D_UPDATE)
                                self._con(_n("c1ciii_or", h, shared, other, k, l), "1c-iii",
                                          [(1, d1), (1, d2)], ">=", 1)
        # 1c-iv: pair update precedes any zeroing involving its rows
        for i, j, k, l in self.y_tuples():
            for r in (i, j):
                if r < k:
                    continue
                for h in self._rows_from(k):
                    if h == r:
                        continue
                    zterms, zhats = self._zsum(h, r, k)
                    terms = [(1, _n("y", i, j, k, l))] + [(-c, v) for c, v in zterms] + \
                            [(T, v) for _, v in zhats]
                    self._con(_n("c1civ", i, j, k, l, r, h), "1c-iv",
                              terms, "<=", T - D_UPDATE)
        # 1d-d: zeroing actions sharing a pivot are separated
        for k in range(1, q + 1):
            rows = list(self._rows_from(k))
            for i in rows:            # pivot
                for j in rows:
                    for h in rows:
                        if j >= h or i in (j, h):
                            continue
                        d5 = self._bvar(_n("dl5", h, i, j, k))
                        d6 = self._bvar(_n("dl6", h, i, j, k))
                        self._con(_n("c1d1_a", h, i, j, k), "1d-case1",
                                  [(1, _n("z", j, i, k)), (-1, _n("z", h, i, k)),
                                   (T, _n("zhat", h, i, k)), (-T, d5)],
                                  "<=", T - D_TTQRT)
                        self._con(_n("c1d1_b", h, i, j, k), "1d-case1",
                                  [(1, _n("z", h, i, k)), (-1, _n("z", j, i, k)),
                                   (T, _n("zhat", j, i, k)), (-T, d6)],
                                  "<=", T - D_TTQRT)
                        self._con(_n("c1d1_or", h, i, j, k), "1d-case1",
                                  [(1, d5), (1, d6)], ">=", 1)
        # 1d case 2: pivot duty precedes the pivot's own zeroing
        # (the formulation leaves the row-order of this case open; emitted for
        # all valid row triples)
        for k in range(1, q + 1):
            rows = list(self._rows_from(k))
            for i in rows:
                for j in rows:
                    for h in rows:
                        if len({i, j, h}) < 3:
                            continue
                        self._con(_n("c1d2", h, i, j, k), "1d-case2",
                                  [(1, _n("z", j, i, k)), (-1, _n("z", i, h, k)),
                                   (T, _n("zhat", i, h, k))],
                                  "<=", T - D_TTQRT)
        # 3: both tiles of a zeroing must already be triangles
        for i, j, k in self.z_tuples():
            for r in (i, j):
                self._con(_n("c3", r, i, j, k), "3",
                          [(1, _n("x", r, k)), (T, _n("zhat", i, j, k)),
                           (-1, _n("z", i, j, k))],
                          "<=", T)
        # 4a: triangularization forces updates in later columns
        for k in range(1, q):
            for i in range(k, self.p + 1):
                for l in range(k + 1, q + 1):
                    self._con(_n("c4a", i, k, l), "4a",
                              [(1, _n("x", i, k)), (-1, _n("w", i, l, k))],
                              "<=", -D_UPDATE)
        # 4b: zeroing forces pair updates in later columns
        for i, j, k in self.z_tuples():
            if i > j:
                continue
            for l in range(k + 1, q + 1):
                yterms, _ = self._ysum(i, j, l, k)
                zterms, _ = self._zsum(i, j, k)
                self._con(_n("c4b", i, j, k, l), "4b",
                          [(c, v) for c, v in zterms] + [(-c, v) for c, v in yterms],
                          "<=", 0)
        # 5: panel update precedes the pair update it feeds
        for i, j, k, l in self.y_tuples():
            if i > j:
                continue
            if not self._has(_n("w", i, k, l)):
                continue
            yterms, yhats = self._ysum(i, j, k, l)
            terms = [(1, _n("w", i, k, l))] + [(T, v) for _, v in yhats] + \
                    [(-c, v) for c, v in yterms]
            self._con(_n("c5", i, j, k, l), "5", terms, "<=", T)
        # 6: no updates after triangularization
        for k in range(2, q + 1):
            for l in range(1, k):
                for i in range(k, p + 1):
                    self._con(_n("c6w", i, k, l), "6",
                              [(1, _n("x", i, k)), (-1, _n("w", i, k, l))], ">=", 0)
                    for j in self._rows_from(l):
                        if j == i:
                            continue
                        yterms, _ = self._ysum(i, j, k, l)
                        self._con(_n("c6y", i, j, k, l), "6",
                                  [(1, _n("x", i, k))] + [(-c, v) for c, v in yterms],
                                  ">=", 0)
        # 7: a zeroed tile cannot pivot afterwards (big-M guarded)
        for k in range(1, q + 1):
            rows = list(self._rows_from(k))
            for i in rows:
                for j in rows:
                    for h in rows:
                        if i in (j, h) or j == h:
                            continue
                        self._con(_n("c7", h, i, j, k), "7",
                                  [(1, _n("z", i, j, k)), (-T, _n("zhat", i, j, k)),
                                   (-1, _n("z", h, i, k))],
                                  ">=", -T)
        # 8: triangularizations take two steps
        for i, k in self.x_tuples():
            if i >= k:
                self._con(_n("c8", i, k), "8", [(1, _n("x", i, k))], ">=", D_GEQRT)
        # 9: every sub-diagonal tile is zeroed exactly once
        for k in range(1, q + 1):
            for i in range(k + 1, self.p + 1):
                terms = [(1, _n("zhat", i, j, k)) for j in self._rows_from(k) if j != i]
                self._con(_n("c9", i, k), "9", terms, "=", 1)
        # 11: indicator forcing
        for i, j, k, l in self.y_tuples():
            self._con(_n("c11ya", i, j, k, l), "11",
                      [(1, _n("yhat", i, j, k, l)), (-1, _n("y", i, j, k, l))], "<=", 0)
            self._con(_n("c11yb", i, j, k, l), "11",
                      [(T, _n("yhat", i, j, k, l)), (-1, _n("y", i, j, k, l))], ">=", 0)
        for i, j, k in self.z_tuples():
            self._con(_n("c11za", i, j, k), "11",
                      [(1, _n("zhat", i, j, k)), (-1, _n("z", i, j, k))], "<=", 0)
            self._con(_n("c11zb", i, j, k), "11",
                      [(T, _n("zhat", i, j, k)), (-1, _n("z", i, j, k))], ">=", 0)
        self._precedence_block()
        self._objective_block()
        if self.capacity is not None:
            self._capacity_block()

    def prec_tuples(self):
        for k in range(1, self.q + 1):
            rows = list(self._rows_from(k))
            for h in rows:
                for i in rows:
                    for j in rows:
                        if len({h, i, j}) == 3:
                            yield h, i, j, k

    def _precedence_block(self):
        T = self.T
        for h, i, j, k in self.prec_tuples():
            a1 = self._bvar(_n("a1", h, i, j, k))
            a2 = self._bvar(_n("a2", h, i, j, k))
            b = self._bvar(_n("b", h, i, j, k))
            c1 = self._bvar(_n("c1", h, i, j, k))
            c = self._bvar(_n("c", h, i, j, k))
            zh, zj = _n("zhat", h, i, k), _n("zhat", j, i, k)
            self._con(_n("pa1a", h, i, j, k), "prec-a1", [(1, a1), (-1, zh)], "<=", 0)
            self._con(_n("pa1b", h, i, j, k), "prec-a1", [(1, a1), (-1, zj)], "<=", 0)
            self._con(_n("pa1c", h, i, j, k), "prec-a1",
                      [(1, a1), (-1, zh), (-1, zj)], ">=", -1)
            zih, zji = _n("zhat", i, h, k), _n("zhat", j, i, k)
            self._con(_n("pa2a", h, i, j, k), "prec-a2", [(1, a2), (-1, zih)], "<=", 0)
            self._con(_n("pa2b", h, i, j, k), "prec-a2", [(1, a2), (-1, zji)], "<=", 0)
            self._con(_n("pa2c", h, i, j, k), "prec-a2",
                      [(1, a2), (-1, zih), (-1, zji)], ">=", -1)
            zhv, zjv = _n("z", h, i, k), _n("z", j, i, k)
            self._con(_n("pba", h, i, j, k), "prec-b",
                      [(T, b), (-1, zhv), (1, zjv)], ">=", 0)
            self._con(_n("pbb", h, i, j, k), "prec-b",
                      [(T, b), (-1, zhv), (1, zjv)], "<=", T)
            self._con(_n("pc1a", h, i, j, k), "prec-c1", [(1, c1), (-1, a1)], "<=", 0)
            self._con(_n("pc1b", h, i, j, k), "prec-c1", [(1, c1), (-1, b)], "<=", 0)
            self._con(_n("pc1c", h, i, j, k), "prec-c1",
                      [(1, c1), (-1, a1), (-1, b)], ">=", -1)
            self._con(_n("pca", h, i, j, k), "prec-c", [(1, c), (-1, c1)], ">=", 0)
            self._con(_n("pcb", h, i, j, k), "prec-c", [(1, c), (-1, a2)], ">=", 0)
            self._con(_n("pcc", h, i, j, k), "prec-c",
                      [(1, c), (-1, c1), (-1, a2)], "<=", 0)
            if k >= 2:
                d = self._bvar(_n("d", h, i, j, k))
                e = self._bvar(_n("e", h, i, j, k))
                f = self._bvar(_n("f", h, i, j, k))
                yh, hh = self._ysum(h, i, k, k - 1)
                yj, hj = self._ysum(j, i, k, k - 1)
                self._con(_n("pda", h, i, j, k), "prec-d",
                          [(1, d)] + [(-c_, v) for c_, v in hh], "<=", 0)
                self._con(_n("pdb", h, i, j, k), "prec-d",
                          [(1, d)] + [(-c_, v) for c_, v in hj], "<=", 0)
                self._con(_n("pdc", h, i, j, k), "prec-d",
                          [(1, d)] + [(-c_, v) for c_, v in hh + hj], ">=", -1)
                self._con(_n("pea", h, i, j, k), "prec-e",
                          [(T, e)] + [(-c_, v) for c_, v in yh] + [(c_, v) for c_, v in yj],
                          ">=", 0)
                self._con(_n("peb", h, i, j, k), "prec-e",
                          [(T, e)] + [(-c_, v) for c_, v in yh] + [(c_, v) for c_, v in yj],
                          "<=", T)
                self._con(_n("pfa", h, i, j, k), "prec-f", [(1, f), (-1, d)], ">=", 0)
                self._con(_n("pfb", h, i, j, k), "prec-f", [(1, f), (-1, e)], ">=", 0)
                self._con(_n("pfc", h, i, j, k), "prec-f",
                          [(1, f), (-1, d), (-1, e)], "<=", 0)
        for h, i, j, k in self.prec_tuples():
            for l in range(max(k + 1, 2), self.q + 1):
                if h < l or i < l or j < l:
                    continue
                self._con(_n("plink", h, i, j, k, l), "prec-link",
                          [(1, _n("c", h, i, j, k)), (-1, _n("f", h, i, j, l))],
                          "<=", 0)

    def _objective_block(self):
        for name in list(self.int_vars):
            if name == "total_time":
                continue
            self._con(_n("obj", name), "objective",
                      [(1, "total_time"), (-1, name)], ">=", 0)

    def _actions(self):
        """(var, duration, hat) of every potentially running kernel; hat is
        None for the panel updates and triangularizations, which always run."""
        acts = []
        for i, k, l in self.w_tuples():
            acts.append((_n("w", i, k, l), D_UPDATE, None))
        for i, k in self.x_tuples():
            if i >= k:
                acts.append((_n("x", i, k), D_GEQRT, None))
        for i, j, k, l in self.y_tuples():
            acts.append((_n("y", i, j, k, l), D_UPDATE, _n("yhat", i, j, k, l)))
        for i, j, k in self.z_tuples():
            acts.append((_n("z", i, j, k), D_TTQRT, _n("zhat", i, j, k)))
        return acts

    def _capacity_block(self):
        T, P = self.T, self.capacity
        slot_terms = {t: [] for t in range(1, T + 1)}
        for var, dur, hat in self._actions():
            # at_<var>_<t> = 1 iff the action finishes at t, so it runs in
            # slots t-dur+1..t (slot t is the interval (t-1, t])
            pulses = [(t, self._bvar(_n("at", var, t))) for t in range(dur, T + 1)]
            self._con(_n("capfin", var), "capacity",
                      [(1, var)] + [(-t, at) for t, at in pulses], "=", 0)
            self._con(_n("capone", var), "capacity",
                      [(1, at) for _, at in pulses] + ([(-1, hat)] if hat else []),
                      "=", 0 if hat else 1)
            for t, at in pulses:
                for s in range(t - dur + 1, t + 1):
                    slot_terms[s].append((1, at))
        for t in range(1, T + 1):
            self._con(_n("cap", t), "capacity", slot_terms[t], "<=", P)

    # -- rendering ------------------------------------------------------------

    def render(self):
        lines = [f"\\ tiled QR IP: p={self.p} q={self.q} T={self.T}"
                 + (f" capacity={self.capacity}" if self.capacity is not None else ""),
                 "Minimize", " obj: total_time", "Subject To"]
        for con in self.constraints:
            if not con.terms:
                continue
            expr = []
            for coef, var in con.terms:
                sign = "+" if coef >= 0 else "-"
                mag = abs(coef)
                expr.append(f"{sign} {'' if mag == 1 else str(mag) + ' '}{var}")
            body = " ".join(expr)
            if body.startswith("+ "):
                body = body[2:]
            lines.append(f" {con.name}: {body} {con.sense.replace('==','=')} {con.rhs}")
        lines.append("Bounds")
        for name, ub in sorted(self.int_vars.items()):
            lines.append(f" 0 <= {name} <= {ub}")
        for name, val in sorted(self.fixed.items()):
            lines.append(f" {name} = {val}")
        lines.append("Generals")
        for name in sorted(self.int_vars):
            lines.append(f" {name}")
        lines.append("Binaries")
        for name in self.bin_vars:
            lines.append(f" {name}")
        lines.append("End")
        return "\n".join(lines) + "\n"


def emit_ip(p, q, horizon, capacity=None) -> IPModel:
    return IPModel(p, q, horizon, capacity)


# ---------------------------------------------------------------------------
# schedules -> assignments

def schedule_to_assignment(graph, schedule, weights=None) -> dict:
    """Map a TT-kernel schedule to IP variable values (half-unit finish
    times); indicator and auxiliary variables are derived consistently."""
    from .taskgraph import WeightModel
    weights = weights or WeightModel.qr_tt()
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
            i, k = t.indices
            assign[_n("x", i, k)] = half
        elif t.kind == UNMQR:
            i, k, j = t.indices
            assign[_n("w", i, j, k)] = half
        elif t.kind == TTQRT:
            i, piv, k = t.indices
            assign[_n("z", i, piv, k)] = half
            assign[_n("zhat", i, piv, k)] = 1
        else:
            i, piv, k, j = t.indices
            assign[_n("y", i, piv, j, k)] = half
            assign[_n("yhat", i, piv, j, k)] = 1
    assign["total_time"] = max(assign.values())
    return assign


def complete_assignment(model: IPModel, assign: dict) -> dict:
    """Fill in the disjunction and precedence auxiliaries implied by the
    action times.  Incoming pulse binaries are dropped and rederived: only
    the one pulse that is 1 is set, missing variables count as 0."""
    out = {v: x for v, x in assign.items() if not v.startswith("at_")}
    g = out.get
    T = model.T

    def ysum(i, j, k, l):
        return g(_n("y", i, j, k, l), 0) + g(_n("y", j, i, k, l), 0)

    def yhsum(i, j, k, l):
        return g(_n("yhat", i, j, k, l), 0) + g(_n("yhat", j, i, k, l), 0)

    p, q = model.p, model.q
    for k in range(2, q + 1):
        for l in range(1, k):
            rows = list(range(l, p + 1))
            for i in rows:
                for j in rows:
                    if j <= i:
                        continue
                    for h in rows:
                        if h in (i, j):
                            continue
                        for shared, other in ((i, j), (j, i)):
                            # the disjunction form wants at least one delta
                            # raised, so relax whichever side is not needed
                            lhs1 = ysum(other, shared, k, l) + D_UPDATE
                            rhs1 = ysum(h, shared, k, l) + (1 - yhsum(h, shared, k, l)) * T
                            d1 = 0 if lhs1 <= rhs1 else 1
                            lhs2 = ysum(h, shared, k, l) + D_UPDATE
                            rhs2 = ysum(other, shared, k, l) + (1 - yhsum(other, shared, k, l)) * T
                            d2 = (0 if lhs2 <= rhs2 else 1) if d1 else 1
                            out[_n("dl1", h, shared, other, k, l)] = d1
                            out[_n("dl2", h, shared, other, k, l)] = d2
    for k in range(1, q + 1):
        rows = list(range(k, p + 1))
        for i in rows:
            for j in rows:
                for h in rows:
                    if j >= h or i in (j, h):
                        continue
                    zj, zh = g(_n("z", j, i, k), 0), g(_n("z", h, i, k), 0)
                    ok1 = zj + D_TTQRT <= zh + (1 - g(_n("zhat", h, i, k), 0)) * T
                    ok2 = zh + D_TTQRT <= zj + (1 - g(_n("zhat", j, i, k), 0)) * T
                    d5 = 0 if ok1 else 1
                    out[_n("dl5", h, i, j, k)] = d5
                    out[_n("dl6", h, i, j, k)] = (0 if ok2 else 1) if d5 else 1
    for h, i, j, k in model.prec_tuples():
        zh_hat = g(_n("zhat", h, i, k), 0)
        zj_hat = g(_n("zhat", j, i, k), 0)
        a1 = zh_hat and zj_hat
        a2 = g(_n("zhat", i, h, k), 0) and zj_hat
        b = 1 if g(_n("z", h, i, k), 0) > g(_n("z", j, i, k), 0) else 0
        c1 = 1 if (a1 and b) else 0
        c = 1 if (c1 or a2) else 0
        out[_n("a1", h, i, j, k)] = 1 if a1 else 0
        out[_n("a2", h, i, j, k)] = 1 if a2 else 0
        out[_n("b", h, i, j, k)] = b
        out[_n("c1", h, i, j, k)] = c1
        out[_n("c", h, i, j, k)] = c
        if k >= 2:
            dh = yhsum(h, i, k, k - 1)
            dj = yhsum(j, i, k, k - 1)
            d = 1 if (dh >= 1 and dj >= 1) else 0
            diff = ysum(h, i, k, k - 1) - ysum(j, i, k, k - 1)
            e = 1 if diff > 0 else 0
            out[_n("d", h, i, j, k)] = d
            out[_n("e", h, i, j, k)] = e
            out[_n("f", h, i, j, k)] = 1 if (d or e) else 0
    if model.capacity is not None:
        for var, _, _ in model._actions():
            fin = g(var, 0)
            if fin:
                out[_n("at", var, fin)] = 1
    return out


def check_feasible(model: IPModel, assignment: dict):
    """(verdict, violations): evaluate every constraint; fixed variables
    are substituted, missing ones count as 0."""
    full = dict(model.fixed)
    full.update(assignment)
    violated = []
    for con in model.constraints:
        if not con.holds(full):
            violated.append(con)
    return (not violated), violated


def parse_assignment(text) -> dict:
    assign = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        assign[name] = int(value)
    return assign


def assignment_text(assign) -> str:
    return "\n".join(f"{k} {v}" for k, v in sorted(assign.items())) + "\n"
