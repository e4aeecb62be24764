"""Brute-force ground truth: Hilbert functions by sparse rank over a prime
field, and graded Betti numbers by Koszul homology, independent of every
closed-form formula in this package.

Step convention: step 0 of a Betti table is the space of minimal generators
of the ideal, so step i in degree d is Tor_{i+1}(S/I, C)_d.

One engine serves all three families.  Each ideal is spanned by weight
vectors for a torus, so every graded piece of S/I, and every Koszul window,
splits into independent blocks indexed by weights: (row weight, column
weight) for the two-sided torus on the n x n grid of the matrix families,
and the multidegree, the case of the diagonal torus of the n variables, for
the square-free family.  A family enters only through its graded quotient:
the weight of a monomial (`weight(n, m)`, which places each monomial of
`quotient_basis` in its block; the wedges are listed from weights, see
`wedges` below), the weights of a degree with their
orbit multiplicities, and the block's quotient basis with a reduction map mod p
(`quotient(w, p, cap)`; a block's degree |w| is the sum of w[0]).  Here p is
a prime or the product of the two primes of a `PrimePair`, which gives both
primes' pieces, and every value, in one pass.  A window reads the ideal's
dimension in a block off that piece, the block's monomials minus its
quotient basis; a Hilbert value ranks the block's spanning rows
(`ideal_dim(w, p, cap)`) and builds no piece.  For the matrix families the
ideal's block is spanned by the products g * (M / t) over the block's
monomials M and the generators g whose first term t divides M: the rank
kernel (`rank_of_rows`) gives the ideal's dimension from those rows, and
their fully reduced echelon form (`rref_of_rows`) gives the piece, which
only a Koszul window builds.

Inside this module a monomial is one int with a 16-bit exponent field per
variable (`_pack`): x_v^e adds e << 16 v.  Multiplying by x_v adds
1 << 16 v, and a product g * (M / t) of the ideal's block has the terms
M - t + u over the terms u of g, so past the listing of each
representative block no monomial tuple is built, sorted or hashed.  No
exponent exceeds the degree, so every monomial of degree below 2^16 fits,
and the oracles raise ValueError for a degree of 2^16 or more before any
block is built.  Packing keeps the order of every list, so the blocks'
monomials and the windows' wedges, and with them the rank kernel's pivots,
are those of the tuples listed.  `quotient_basis` returns tuples.

There is one graded quotient per ideal (`_graded_quotient(spec)`, which
keeps the last ideal's), and it holds that ideal's own state.  The reduced
pieces sit in one memo keyed by (weight, modulus), so every use of a weight
sees one basis, and the modulus and the cap are arguments of each use; the
cap is checked on every use against the nonzero count each piece carries.
What depends on n alone sits in one grid per n (`_Grid`): each
representative block's monomials, as the tuples listed, and each wedge
weight's wedges.  It is shared by every matrix-family quotient of that n
and held only while one of them lives, so the two families of one matrix
size list each block and each wedge weight once, and a square-free ideal
frees the grid.  Nothing else is kept per n: a block's monomials are packed
for each use, and a window's fitting wedge weights are found for each
window.

Permuting rows and columns (or variables) preserves the ideals, so block
dimensions only depend on the sorted weight; the transpose x_ij -> x_ji
preserves the matrix-family ideals and swaps row and column weight.  So the
oracles visit one weight per orbit, its dominant weight (for the matrix
families the pair with wF <= wE), and scale its block by the orbit size.
The same symmetries carry one block's piece onto every block of its orbit,
and the Koszul windows use weights from every orbit position, so a
matrix-family ideal eliminates one block per orbit: the representative's
monomials are listed once per n, its integer rows are built afresh for each
use and dropped after it, each modulus reduces them once into the
representative's piece, which carries their nonzero count for the cap, and
every other weight of the orbit relabels the representative's monomials
and takes its piece's basis and rewritings in the block's order.  The
independent references are outside this module: `multiply_map_rank` for
the Hilbert function, the whole-space Koszul homology of the tests for the
Betti numbers, and a check of each transported piece against its block's
own spanning rows.

A block's Koszul window only involves wedges (r-subsets of the variables)
whose weight t fits under the block's weight w, and the graded quotient
lists them from w with the weights w - t of their quotient pieces
(`wedges(r, w)`): for the matrix families, the 0/1 n x n matrices with row
sums tE and column sums tF, listed once per orbit of t, for t's sorted
representative, and relabelled onto each t of the orbit by the blocks' row
and column sorts, then sorted, which gives t's own lexicographic listing;
for the square-free family, the r-subsets of w's support.  So a window
looks up one quotient piece per weight t that some wedge has, and no wedge
outside every window is listed.

A block can be computed on either side of 0 -> I -> S -> S/I -> 0.  S is
free, so the long exact Tor sequence gives Tor_(i+1)(S/I) = Tor_i(I) at
every step i: the homology of the quotient window
Lambda^(i+2) (x) (S/I)_(d-i-2) -> Lambda^(i+1) (x) (S/I)_(d-i-1)
-> Lambda^i (x) (S/I)_(d-i) is that of the ideal window
Lambda^(i+1) (x) I_(d-i-1) -> Lambda^i (x) I_(d-i)
-> Lambda^(i-1) (x) I_(d-i+1).
Both sides list the wedges at r = i and i + 1 with the same pieces, so one
pass over them gives both middle dimensions, and each block takes the side
whose middle is smaller; a block whose smaller middle is 0 has no homology.
The ideal's piece is read off the memoised quotient piece, with no second
elimination: each monomial P outside the quotient basis gives
b_P = P - sum_k c_k u_k from its rewriting sum_k c_k u_k, the b_P are a
basis of the ideal's piece, and an element of the ideal has its
coefficients at those P as coordinates.  Neither side copies a piece: a
layout's basis is the piece's quotient basis list, or the list of its
non-standard monomials P, the piece's own ints; the terms of b_P are read
off the reduction map only while b_P's row is written; and the ideal side
reads P as {P's position: 1}, one dict per position that every layout
shares.  The ideal side's middle map is written into monomial coordinates
of Lambda^(i-1) (x) S, numbered as they are met: I is a subspace of S, so
the rank is the same, and no piece of degree d-i+1 is listed or
eliminated.

A block's homology is the nullity of its middle map minus the rank of its
top map, and the middle map is ranked first.  A block with nullity 0 stops
there.  Otherwise the top map is ranked only on the middle coordinates that
are not pivot rows of the middle map, the "compression" of persistent
homology codes (Bauer, Kerber and Reininghaus, arXiv:1303.0477).  That loses
nothing over any prime, on either side: the top map's image lies in the
middle map's kernel, which meets the span of the pivot coordinates only in
0.  The restricted top map has only nullity columns.
"""

import collections
import functools
import itertools
import operator
import weakref
from math import factorial

from .ideals import expand_generators
from .modular import SMALL, rank_of_rows, residue, rref_of_rows
from .partitions import partitions
from .tensorspace import (
    DEFAULT_NNZ_CAP,
    check_cap,
    mono_weight,
    monomials,
    monomials_with_weight,
)

# bits per exponent field of a packed monomial
_BITS = 16
# every oracle degree is below this, so each exponent fits its field
DEGREE_LIMIT = 1 << _BITS


# ---------------------------------------------------------------------------
# weight bookkeeping


def dominant_weights(total, parts):
    """Weakly decreasing weights: partitions padded to fixed length,
    in lexicographically decreasing order."""
    for lam in partitions(total, max_length=parts):
        yield lam + (0,) * (parts - len(lam))


def orbit_size(w):
    """Number of distinct rearrangements of a weight tuple."""
    count = factorial(len(w))
    for value in set(w):
        count //= factorial(w.count(value))
    return count


def _sub(w, v):
    return tuple(map(operator.sub, w, v))


def _below(w, total):
    """The weights t <= w whose entries sum to `total`: no entry of such a t
    exceeds `total`, so each range stops there."""
    return [t for t in itertools.product(*(range(min(x, total) + 1)
                                           for x in w))
            if sum(t) == total]


def _pack(m, image=None):
    """The int of a monomial's (variable, exponent) pairs: exponent e of x_v
    at bit _BITS * v, or at bit _BITS * image[v] when relabelled."""
    if image is None:
        return sum(e << _BITS * v for v, e in m)
    return sum(e << _BITS * image[v] for v, e in m)


def _check_degree(d):
    """Every exponent of a degree-d monomial fits its packed field."""
    if d >= DEGREE_LIMIT:
        raise ValueError(f"degree {d} exceeds the oracle's limit "
                         f"{DEGREE_LIMIT - 1}")


# ---------------------------------------------------------------------------
# graded quotients: one per family


def _relabelling(n, w):
    """(representative, image) of a weight pair w under permuting rows,
    permuting columns and transposing: the sorted row and column weights,
    swapped when the column part is larger, and the image of each of the
    representative's variables among w's.  Its variable (r, c) is
    (rows[r], cols[c]) of w, or (rows[c], cols[r]) when transposed, where
    rows and cols sort w's rows and columns by decreasing weight."""
    wE, wF = w
    rows = sorted(range(n), key=lambda r: -wE[r])
    cols = sorted(range(n), key=lambda c: -wF[c])
    rep = tuple(wE[r] for r in rows), tuple(wF[c] for c in cols)
    if rep[1] > rep[0]:
        return rep[::-1], [rows[c] * n + cols[r]
                           for r in range(n) for c in range(n)]
    return rep, [rows[r] * n + cols[c] for r in range(n) for c in range(n)]


class _Grid:
    """What the blocks of every matrix-family ideal on the n x n grid share,
    since it depends on n alone: each representative block's monomials, as
    `monomials_with_weight` lists them, and each wedge weight's wedges.
    Representatives and wedges are listed once per orbit (see
    `_relabelling`), and a wedge weight off its representative relabels the
    representative's wedges.  A window's fitting wedge weights are found on
    each call, and a block's monomials are packed on each call."""

    def __init__(self, n):
        self.n = n
        self._blocks = {}     # representative -> monomials
        self._wedges = {}     # t -> [r-subsets of weight t]

    def monomials(self, rep):
        """The monomials of a representative weight's block, listed once."""
        if rep not in self._blocks:
            self._blocks[rep] = monomials_with_weight(self.n, *rep)
        return self._blocks[rep]

    def block(self, rep):
        """(monomials, packed monomials) of a representative weight's block,
        packed for this call."""
        monos = self.monomials(rep)
        return monos, [_pack(m) for m in monos]

    def wedge_list(self, t):
        """The r-subsets of weight t, 0/1 n x n matrices with row sums tE and
        column sums tF, in lexicographic order: the representative's,
        filled row by row against the remaining column sums (Ryser's
        setting), relabelled onto t's variables and sorted."""
        if t not in self._wedges:
            rep, image = _relabelling(self.n, t)
            if rep == t:
                self._wedges[t] = [tuple(v for v, _ in m) for m in
                                   monomials_with_weight(self.n, *t, bound=1)]
            else:
                self._wedges[t] = sorted(tuple(sorted(image[v] for v in T))
                                         for T in self.wedge_list(rep))
        return self._wedges[t]

    def wedges(self, r, w):
        """[(w - t, the r-subsets of weight t)] over the weights t <= w of
        r-subsets, listed for this call."""
        fitting = []
        for t in itertools.product(*(_below(part, r) for part in w)):
            if group := self.wedge_list(t):
                fitting.append((t, group))
        # no value depends on the order of a window's wedges, but the rank
        # kernel's pivots, and so the size of each restricted top map, do:
        # list the row weights, and within one the weights, in the order the
        # lexicographic listing of r-subsets meets them
        fitting.sort(key=lambda tg: ([-x for x in tg[0][0]], tg[1][0]))
        return [((_sub(w[0], tE), _sub(w[1], tF)), group)
                for (tE, tF), group in fitting]


# the grid of each n that some quotient holds, and of no other: a CLI
# invocation's ideals of one n share it, and it goes with its last ideal
_grids = weakref.WeakValueDictionary()


class _GridQuotient:
    """S/I for a matrix-family ideal, split into blocks by weight w, a pair
    (row weight, column weight).  Permuting rows, permuting columns and
    transposing map the ideal onto itself and the block of a weight onto
    the block of the permuted weight, so one block per orbit is eliminated:
    the block of the orbit's representative, the dominant pair `weights`
    yields.  The monomials of every block, packed for each use, and the
    wedges of every window come from the grid of its n (`_Grid`), which
    every matrix-family ideal of that n shares.  The quotient owns the
    ideal's own state: the table of generator first terms and one memo of
    each weight's piece, keyed by (w, p), which carries the nonzero count of
    the representative's integer rows spanning the ideal's block.  The rows
    themselves are built for each use that reduces them, an echelon form or
    a rank, and dropped when it returns.  So every cell and step of an ideal
    shares the pieces, and each modulus reduces each orbit once for the
    windows; a Hilbert value ranks each block's rows (`ideal_dim`) and
    builds no piece."""

    @staticmethod
    def weight(n, m):
        """(row weight, column weight) of a grid monomial: x_v adds one to
        row v // n and to column v % n."""
        return mono_weight(m, n)

    def __init__(self, spec):
        self.n = spec.n
        self.kappa = spec.kappa
        self.grid = _grids.setdefault(spec.n, _Grid(spec.n))
        self.wedges = self.grid.wedges
        # every generator is found from the variables of its first term,
        # which must be kappa distinct variables owned by no other generator,
        # and is kept packed: (first term, [(term, coefficient)])
        self.terms_by_lead = {}
        for g in expand_generators(spec):
            lead = next(iter(g.terms))[0]
            key = tuple(v for v, _ in lead)
            if (len(key) != self.kappa or any(e != 1 for _, e in lead)
                    or key in self.terms_by_lead):
                raise RuntimeError(
                    f"generator first term {lead} is not {self.kappa} "
                    "distinct variables of its own")
            self.terms_by_lead[key] = (_pack(lead), [
                (_pack(m), c) for (m, _), c in g.terms.items()])
        # (w, p) -> (quotient basis, reduction map, nonzeros of the rows)
        self._pieces = {}

    def weights(self, total):
        """One pair per orbit under permuting rows, permuting columns and
        transposing (the dominant pairs with wF <= wE, since transposing
        swaps the two), with the orbit's size."""
        # dominant_weights yields in decreasing order, so each pair has wF <= wE
        dominant = list(dominant_weights(total, self.n))
        for wE, wF in itertools.combinations_with_replacement(dominant, 2):
            size = orbit_size(wE) * orbit_size(wF)
            yield (wE, wF), size if wE == wF else 2 * size

    def quotient(self, w, p, cap):
        """(quotient basis monomials, reduction map) of the weight-w block
        mod p; the reduction map rewrites every monomial of the block as a
        combination of basis monomials mod I, as {basis position: nonzero
        coefficient}, in the block's order.  A representative's piece is
        its own (`_echelon`); any other weight's is its representative's,
        relabelled onto w.  The cap is checked against the piece's nonzero
        count on every use, since callers sharing a block may pass
        different caps; a relabelling keeps the block's nonzeros."""
        piece = self._pieces.get((w, p))
        if piece is None:
            rep, image = _relabelling(self.n, w)
            if rep == w:
                piece = self._echelon(w, p, cap)
            else:
                self.quotient(rep, p, cap)
                basis, reduce_map, nnz = self._pieces[rep, p]
                # the reduction map lists the block's packed monomials
                relabel = dict(zip(reduce_map, [
                    _pack(m, image) for m in self.grid.monomials(rep)]))
                piece = ([relabel[u] for u in basis],
                         dict(zip(relabel.values(), reduce_map.values())), nnz)
            self._pieces[w, p] = piece
        check_cap(piece[2], cap, "ideal block nonzeros")
        return piece[:2]

    def ideal_dim(self, w, p, cap):
        """Dimension of the ideal's weight-w block mod p: the rank of the
        representative's spanning rows, built for this call, with no
        echelon form; the build checks the cap as it goes."""
        block = self.grid.block(_relabelling(self.n, w)[0])
        return rank_of_rows(self._spanning_rows(*block, cap)[0], p)

    def _echelon(self, rep, p, cap):
        """The representative block's piece mod p: the complement of the
        pivot monomials of the fully reduced echelon form of its spanning
        rows, each monomial's rewriting mod I read off that form, with each
        coefficient its residue in (-p/2, p/2] (`residue`), so that -1 is
        the int -1, and the rows' nonzero count."""
        monos, packed = self.grid.block(rep)
        rows, nnz = self._spanning_rows(monos, packed, cap)
        pivots = rref_of_rows(rows, p)
        free = [i for i in range(len(packed)) if i not in pivots]
        position = {i: k for k, i in enumerate(free)}
        reduce_map = {M: {position[c]: residue(-v, p)
                          for c, v in pivots[i].items() if c != i}
                      if i in pivots else {position[i]: 1}
                      for i, M in enumerate(packed)}
        return [packed[i] for i in free], reduce_map, nnz

    def _spanning_rows(self, monos, packed, cap=None):
        """(rows, nonzeros): the products g * (M / t) for each block
        monomial M and generator g whose first term t divides M, over the
        positions of the packed monomials, and their nonzeros.  Packed, the
        term u of g gives M - t + u.  Since M -> M / t maps those M
        one-to-one onto g's multipliers of the block's weight, these are the
        products of each generator with each of its multipliers.  The
        running count is checked against `cap` row by row, so a block past
        the cap raises before it is built in full."""
        index = {M: i for i, M in enumerate(packed)}
        rows = []
        nnz = 0
        for m, M in zip(monos, packed):
            for lead in itertools.combinations([v for v, _ in m], self.kappa):
                generator = self.terms_by_lead.get(lead)
                if generator is None:
                    continue
                t, terms = generator
                cofactor = M - t
                row = {index[cofactor + u]: c for u, c in terms}
                nnz += len(row)
                check_cap(nnz, cap, "ideal block nonzeros")
                rows.append(row)
        return rows, nnz


class _SquarefreeQuotient:
    """The ideal of degree-kappa square-free monomials, graded by
    multidegree.  A multidegree holds a single monomial, which lies outside
    the ideal iff it involves fewer than kappa distinct variables, so a
    block's quotient basis is that monomial or nothing, its reduction map
    the identity or zero and its ideal dimension 0 or 1, over every prime
    and with no matrix to cap."""

    @staticmethod
    def weight(n, m):
        """(multidegree, ()) of a monomial: x_v adds one to coordinate v."""
        w = [0] * n
        for v, e in m:
            w[v] += e
        return tuple(w), ()

    def __init__(self, spec):
        self.n = spec.n
        self.kappa = spec.kappa

    def weights(self, total):
        """One multidegree per orbit under permuting the variables, with the
        orbit's size."""
        for w in dominant_weights(total, self.n):
            yield (w, ()), orbit_size(w)

    def quotient(self, w, p, cap):
        mono = _pack(enumerate(w[0]))
        if len(w[0]) - w[0].count(0) < self.kappa:
            return [mono], {mono: {0: 1}}
        return [], {mono: {}}

    def ideal_dim(self, w, p, cap):
        return int(len(w[0]) - w[0].count(0) >= self.kappa)

    def wedges(self, r, w):
        """Yields (w - t, [T]) for the r-subsets T of w's support, t the
        multidegree of T, which holds no other wedge."""
        support = [v for v, x in enumerate(w[0]) if x]
        for T in itertools.combinations(support, r):
            rest = tuple(x - (v in T) for v, x in enumerate(w[0]))
            yield (rest, ()), [T]


# one ideal at a time: a CLI invocation has one ideal, so every modulus, cell
# and step of it shares the quotient, and memory stays bounded by one
# ideal's blocks and pieces
@functools.lru_cache(maxsize=1)
def _graded_quotient(spec):
    if spec.family == "squarefree":
        return _SquarefreeQuotient(spec)
    return _GridQuotient(spec)


# ---------------------------------------------------------------------------
# the Koszul window


def _span(quot, p, cap, r, w):
    """The weight-w block of Lambda^r (x) S, which 0 -> I -> S -> S/I -> 0
    splits into its blocks of Lambda^r (x) S/I and Lambda^r (x) I:
    ([(wedges, quotient basis, reduction map)] over the groups of wedges
    sharing a piece, in the order of the wedges, the quotient dimension,
    the ideal dimension).  The pieces have degree |w| - r; below r no wedge
    fits under w."""
    pieces = []
    qdim = idim = 0
    for m, group in quot.wedges(r, w):
        qbasis, reduce_map = quot.quotient(m, p, cap)
        qdim += len(qbasis) * len(group)
        idim += (len(reduce_map) - len(qbasis)) * len(group)
        pieces.append((group, qbasis, reduce_map))
    return pieces, qdim, idim


# {j: 1} at position j, shared by every layout: the ideal side reads its
# j-th non-standard monomial through it, so no layout builds a dict per
# monomial.  It grows to the largest ideal piece laid out, and nothing
# writes to its dicts.
_UNIT_READS = []


def _side(qbasis, reduce_map, ideal):
    """(basis, read, tail) of one piece on one side, by reference into the
    piece, with no copy of it.  `read` gives each monomial of the piece its
    coordinates, {position: coefficient}.  A basis element b has the term
    (b, 1), and when `tail` = (qbasis, reduce_map) is not None also the
    terms (qbasis[k], -c) over reduce_map[b].items() as (k, c).  On the
    quotient side the basis is the quotient basis list itself, `read` the
    reduction map and `tail` None.  On the ideal side the basis lists the
    non-standard monomials P, the piece's own ints, each for
    b_P = P - sum_k reduce_map[P][k] qbasis[k], and `read` takes P to the
    shared {P's position: 1} (`_UNIT_READS`) and a standard monomial to
    nothing: the b_P span I's piece, and an element of it has its
    coefficients at the non-standard monomials as coordinates.  The
    coefficients of b_P negate those of P's rewriting, residues in
    (-p/2, p/2], so they are residues there too."""
    if not ideal:
        return qbasis, reduce_map, None
    read = dict.fromkeys(qbasis, {})
    basis = [P for P in reduce_map if P not in read]
    for j in range(len(_UNIT_READS), len(basis)):
        _UNIT_READS.append({j: 1})
    read.update(zip(basis, _UNIT_READS))
    return basis, read, (qbasis, reduce_map)


def _layout(pieces, ideal):
    """One side of a window's pieces laid out by offsets: its dimension and
    {wedge: (offset, read, (basis, tail))} for the wedges whose piece on
    that side is nonzero, from the piece's `_side`; every wedge of the
    piece's group shares its read and one (basis, tail) pair.  The basis
    element k of T's piece sits at T's offset plus k, in the order of the
    wedges."""
    layout = {}
    dim = 0
    for group, qbasis, reduce_map in pieces:
        basis, read, tail = _side(qbasis, reduce_map, ideal)
        if basis:
            elements = basis, tail
            for T in group:
                layout[T] = (dim, read, elements)
                dim += len(basis)
    return dim, layout


def _monomial_coordinates():
    """Lambda^r (x) S in monomial coordinates, as a differential's target:
    each wedge is (0, read), offset 0 with a read that takes every
    monomial m to {column of (wedge, m): 1}, and the columns are numbered
    as the differential meets them, so no piece of S is listed or
    eliminated."""
    columns = itertools.count()
    faces = collections.defaultdict(lambda: (0, collections.defaultdict(
        lambda: {next(columns): 1})))
    return faces.__getitem__


def _differential(p, cap, source, target, skip=frozenset()):
    """Rows mod p of the Koszul differential from the laid-out side
    `source` into `target`, one per source basis element in layout order:
    (T, b) goes to the sum over a of (-1)^a (T minus T[a], b x_T[a]).
    `target(wedge)` is that wedge's (offset, read, ...), as `_layout` lays
    it out, or None where its piece is zero.  The terms of b, (b, 1)
    and on the ideal side the tail (qbasis[k], -c) of b's rewriting (see
    `_side`), are listed only while b's row is written, and b x_v is read
    term by term, each packed term plus the int of x_v, straight onto the
    positions after T minus v's offset; one loop serves both sides.
    Distinct terms and distinct v give distinct columns on either side, so
    each entry is written once, and an entry zero mod p is left out.
    Modulo the product of a `PrimePair` an entry can still be zero modulo
    one of its primes; the rank kernel keeps it, and raises if it is ever a
    pivot.  Each entry is the signed product of a basis coefficient and a
    read coefficient, kept as it is while strictly inside +-SMALL, where it
    is zero mod p only if it is 0, and reduced (`residue`) otherwise; so a
    +-1 entry is the int 1 or -1.  The positions in `skip` are dropped, and
    every other keeps its number as its column, taken from one table per
    call, so every row that holds a column keys it by the same int; `cap`
    bounds the nonzeros of the full map, and the running count is checked
    row by row, so a map past the cap raises before it is built in full."""
    rows = []
    nnz = 0
    # column number -> the one int that every row holding it uses as key,
    # or None for a dropped position
    column = dict.fromkeys(skip).setdefault
    for T, (_, _, (basis, tail)) in source.items():
        faces = []
        for a, v in enumerate(T):
            face = target(T[:a] + T[a + 1:])
            if face is not None:
                faces.append((1 << _BITS * v, a % 2, face[0], face[1]))
        qbasis, tails = tail or (None, None)
        for b in basis:
            terms = [(b, 1)]
            if tails is not None:
                terms += [(qbasis[k], -v) for k, v in tails[b].items()]
            row = {}
            for x_v, odd, offset, read in faces:
                for u, a in terms:
                    coeffs = read[u + x_v]
                    nnz += len(coeffs)
                    if odd:
                        a = -a
                    for j, c in coeffs.items():
                        k = offset + j
                        k = column(k, k)
                        if k is None:
                            continue
                        c *= a
                        if not -SMALL < c < SMALL:
                            c = residue(c, p)
                        if c:
                            row[k] = c
            check_cap(nnz, cap, "Koszul window nonzeros")
            rows.append(row)
    return rows


def _betti_block(quot, p, cap, i, w):
    """Homology dimension mod p of the weight-w block at step i, d = |w|,
    on whichever side of 0 -> I -> S -> S/I -> 0 has the smaller middle,
    Lambda^(i+1) (x) (S/I)_(d-i-1) or Lambda^i (x) I_(d-i); a block whose
    smaller middle is 0 has no homology.

    The middle map is ranked first, and its nullity bounds the homology: at
    0 the block is done.  Otherwise the top map is ranked on the middle
    coordinates that are not pivot rows R of the middle map, and assembled
    straight onto them, each keeping its number.  Nothing is lost: the top
    map's image lies in the middle map's kernel, and the kernel meets the
    span of the R coordinates only in 0, since the rows in R map to
    independent vectors.  So dropping those coordinates is one-to-one on
    the image, over every prime, and the restricted top map has only
    nullity columns.  The cap bounds each full differential of the side
    taken."""
    lower, _, ideal_middle = _span(quot, p, cap, i, w)
    upper, quotient_middle, _ = _span(quot, p, cap, i + 1, w)
    if not min(quotient_middle, ideal_middle):
        return 0
    ideal = ideal_middle < quotient_middle
    if ideal:
        middle, top, bottom = lower, upper, _monomial_coordinates()
    else:
        middle, top, bottom = upper, None, _layout(lower, False)[1].get
    middle_dim, middle = _layout(middle, ideal)
    pivots = []
    nullity = middle_dim - rank_of_rows(
        _differential(p, cap, middle, bottom), p, pivot_rows=pivots)
    if not nullity:
        return 0
    if top is None:
        top = _span(quot, p, cap, i + 2, w)[0]
    top_dim, top = _layout(top, ideal)
    if not top_dim:
        return nullity
    return nullity - rank_of_rows(
        _differential(p, cap, top, middle.get, set(pivots)), p)


# ---------------------------------------------------------------------------
# public oracles


def hilbert_oracle(spec, t, field_, *, cap=DEFAULT_NNZ_CAP):
    """dim I_t computed by brute force, as the sum over weights of the
    ideal's block dimensions (`ideal_dim`), with no piece built: for the
    matrix families the rank mod p of {generator * monomial} in that
    weight (`rank_of_rows`), and 0 or 1 per multidegree for the square-free
    family.
    One weight per orbit is visited and scaled by the orbit's size.  The
    square-free oracle builds no degree-t basis, so `cap` does not bound
    it.  Returns 0 for t below the generator degree."""
    _check_degree(t)
    if t < spec.kappa:
        return 0
    quot = _graded_quotient(spec)
    return sum(quot.ideal_dim(w, field_.modulus, cap) * size
               for w, size in quot.weights(t))


def quotient_basis(spec, t, field_, cap=DEFAULT_NNZ_CAP):
    """Monomials spanning (S/I)_t, in the canonical order, together with the
    dimension.  Each degree-t monomial is kept when it lies in the quotient
    basis of its own weight's block: for the matrix families the orbit
    representative's complement of its pivot monomials under the canonical
    order, relabelled onto the block, not the canonical complement at every
    weight."""
    _check_degree(t)
    quot = _graded_quotient(spec)
    keep = {}
    basis = []
    for m in monomials(spec.nvars, t, cap=cap):
        w = quot.weight(spec.n, m)
        if w not in keep:
            keep[w] = set(quot.quotient(w, field_.modulus, cap)[0])
        if _pack(m) in keep[w]:
            basis.append(m)
    return basis, len(basis)


def betti_oracle(spec, i, d, field_, *, cap=DEFAULT_NNZ_CAP):
    """Graded Betti number b_{i,d} of the ideal, as the Koszul homology of
    Lambda^(i+2) (x) (S/I)_(d-i-2) -> Lambda^(i+1) (x) (S/I)_(d-i-1)
    -> Lambda^i (x) (S/I)_(d-i), or of the ideal window
    Lambda^(i+1) (x) I_(d-i-1) -> Lambda^i (x) I_(d-i)
    -> Lambda^(i-1) (x) I_(d-i+1), block by block on the side with the
    smaller middle: nullity of the second map minus rank of the first.  One
    block is computed per orbit of weights (per orbit of weight pairs under
    row and column permutations and the transpose for the matrix families)
    and scaled by the orbit size.  `cap` bounds the nonzeros of each ideal
    block and of each differential of the side each block takes."""
    if i < 0:
        raise ValueError("step must be nonnegative")
    _check_degree(d)
    if i + 1 > spec.nvars:
        # Lambda^(i+1) of the variables is 0: every window's middle is 0
        return 0
    if spec.family == "squarefree" and d > spec.n:
        # the Taylor resolution of a square-free monomial ideal lives in the
        # lcm multidegrees of its generators, which are square-free, so no
        # Betti number lies above degree n
        return 0
    quot = _graded_quotient(spec)
    total = 0
    for w, size in quot.weights(d):
        h = _betti_block(quot, field_.modulus, cap, i, w)
        if h:
            total += h * size
    return total
