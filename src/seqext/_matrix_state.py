"""The pure twin's matrix search state, `MatrixState`: a row-major 0-1 fill
that avoids a pattern, with its Russian-doll slack and order rules. It
offers the operations `_kernels_py` describes and reads its arguments from
`_kernels_py.check_matrix_search`.

`_kernels_py.matrix_search` and the split frontier of `oracle_ex_matrix`
import this module when they first build a state, so a sequence search or
a search on the compiled twin never compiles it.
"""

from __future__ import annotations

from itertools import combinations

from . import _kernels_py


class MatrixState:
    """Row-major 0-1 fill of an n x m matrix avoiding the pattern P (rows
    `p_rows`, pn x pm): each move sets the next cell, 1 before 0, and a 1
    that makes the matrix contain P is refused. `row_bounds[k]`, for k < n,
    bounds the ones of a P-free k x m matrix; a missing entry counts as k m.
    P's rows as searched, `last`, the rule flags and the padded table are
    `check_matrix_search`'s, which both twins read.

    Containment through the new cell: the matrix was P-free before the
    push, so an occurrence after it uses the new 1 at (i, c), which an entry
    of P then covers. Rows below i are still 0, so the P rows mapped below i
    are empty, and row i takes P's last nonempty row, `last`; the P rows
    above it take `last` rows above i. Only those row selections are
    checked, with enough rows left below i for P's trailing empty rows. For
    each, a P column's candidates are the AND of the host rows whose P rows
    have a 1 in it, and P's columns are matched greedily, left to right, each
    to the first candidate after the previous one.

    Russian-doll slack (Verfaillie, Lemaitre & Schiex, AAAI 1996): deleting
    rows keeps a matrix P-free, so with the next cell at (i, c), rows below
    i hold at most row_bounds[n-i-1] ones and rows i.. hold at most
    row_bounds[n-i]. The ones still to come are therefore at most
    min((m - c) + row_bounds[n-i-1], row_bounds[n-i] - ones in row i), the
    `slack` after the move. It bounds every P-free completion, whatever the
    order rules below refuse. With no table it is the cells left.

    Row-order rule: when every row of P is equal as searched (on its pm
    columns; all 0 when P does not fit, so no host contains it), a 1 at
    cell (i, c) is also refused if row i-1 has a 0 at column c and row i
    equals row i-1 on the columns before c, so the rows stay non-increasing
    in the row-major, 1-before-0 order.

    Column rule: when every column of P is equal (each P row is empty or
    full), a 1 at (i, c) is refused if cell (i, c-1) is 0 and columns c-1 and
    c agree above row i, so the columns stay non-increasing read top-down,
    1 before 0. `tie[i]` has bit c set when columns c-1 and c agree on
    rows 0..i-1; it is set on the first move into row i. With both rules
    the order is double-lex (Flener et al., CP 2002).

    The order rules change no value or witness:
    - with equal P rows (columns), whether some host rows and columns
      contain P does not depend on the order of those rows (columns), so
      permuting host rows (columns) keeps the host P-free;
    - swapping two adjacent rows (columns) that are out of order makes a
      matrix lexicographically larger (row-major, 1 before 0), so the
      lexicographically largest matrix of a set closed under those
      permutations is sorted in them;
    - `_dfs` tries 1 before 0 and keeps only strict improvements, so it
      returns the lexicographically largest optimal matrix, which is
      therefore already sorted and never refused; the slack, an admissible
      bound, never cuts the path to it.
    Only node counts fall; the split frontier uses this state, so its
    prefixes obey the rules too."""

    def __init__(self, n, m, p_rows, pn, pm, node_budget=0, prefix=(), initial_best=-1,
                 row_bounds=()):
        (n, m, _, pn, pm, self.node_budget, self.prefix, self.initial_best, _, rows, self.last,
         self.equal_rows, self.equal_cols, rd) = _kernels_py.check_matrix_search(  # as the C twin
            n, m, p_rows, pn, pm, node_budget, prefix, initial_best, row_bounds)
        self.n, self.m = n, m
        self.limit = n * m
        # row i can take P's last nonempty row when i >= last and the rows below suffice
        self.checked = [0 <= self.last <= i <= n - pn + self.last for i in range(n)]
        # per P column: the P rows up to `last` with a 1 in it; none unless P fits
        self.col_rows = [tuple(u for u in range(self.last + 1) if (rows[u] >> v) & 1)
                         for v in range(pm if self.last >= 0 else 0)]
        self.full = (1 << m) - 1
        self.rows = [0] * (n + 1)  # row n stays 0: the row of the cell past the last
        self.tie = [self.full] * n
        self.bits = []
        self.depth = self.value = 0
        # after a move to depth d, the next cell is (i, c) = divmod(d, m)
        self.cell = [divmod(d, m) for d in range(n * m + 1)]
        self.cap_cells = [(m - c) + rd[n - i - 1] if i < n else 0 for i, c in self.cell]
        self.cap_rows = [rd[n - i] if i < n else 0 for i, _ in self.cell]
        self.slack = self.limit

    def candidates(self):
        return (1, 0)

    def completes(self, i, row):
        """Does row i, set to `row` by a 1, complete an occurrence of P with
        the rows above it? The rows above and the fill line must be P-free."""
        if not self.checked[i]:
            return False
        full, col_rows = self.full, self.col_rows
        for sel in combinations(self.rows[:i], self.last):
            h = sel + (row,)
            pos = 0  # the first column not yet matched
            for need in col_rows:
                c = full
                for w in need:
                    c &= h[w]
                c >>= pos
                if not c:
                    break
                pos += (c & -c).bit_length()
            else:
                return True
        return False

    def try_push(self, bit):
        d = self.depth
        i, c = self.cell[d]
        rows = self.rows
        if c == 0 and i and self.equal_cols:
            above = rows[i - 1]
            self.tie[i] = self.tie[i - 1] & ~(above ^ (above << 1))
        if bit:
            row = rows[i]
            if self.equal_rows and i:
                above = rows[i - 1]
                if not (above >> c) & 1 and row == above & ((1 << c) - 1):
                    return False
            if self.equal_cols and c and not (row >> (c - 1)) & 1 and (self.tie[i] >> c) & 1:
                return False
            row |= 1 << c
            if self.completes(i, row):
                return False
            rows[i] = row
            self.value += 1
        self.bits.append(bit)
        d += 1
        self.depth = d
        slack = self.cap_rows[d] - rows[self.cell[d][0]].bit_count()
        cells = self.cap_cells[d]
        self.slack = cells if cells < slack else slack
        return True

    def pop(self):
        self.depth -= 1
        if self.bits.pop():
            i, c = self.cell[self.depth]
            self.rows[i] ^= 1 << c
            self.value -= 1

    leave = pop

    def snapshot(self):
        return self.rows[:self.n]
