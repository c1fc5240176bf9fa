"""Exact sparse elimination shared by the linear layer and completion.

A sparse vector is a {column: coefficient} dict holding only nonzero
entries.  Columns may be any mutually comparable keys; the pivot of a row
is its least column, so the caller chooses the elimination order by its
keys.  Coefficients follow one rule, coeff: an int while integral, else a
Fraction.  Arithmetic on ints stays on ints; a Fraction, once made by a
division, stays a Fraction.
"""

from fractions import Fraction

F1 = Fraction(1)


def coeff(x):
    """x as an exact coefficient: an int while it is integral, else a
    Fraction.  x is an int, a Fraction or anything Fraction accepts."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def add_to(vec, f, other):
    """vec += f * other on sparse vectors, in place; f and the entries of
    other are nonzero, and zero sums are dropped."""
    for k, x in other.items():
        y = vec.get(k, 0) + f * x
        if y:
            vec[k] = y
        else:
            del vec[k]


def rref(rows):
    """Reduced row echelon form of sparse rows, exact: the nonzero reduced
    rows and their pivot columns, in pivot order.  Each row is reduced by
    the pivot rows so far, which are kept reduced against one another, so
    the result is the unique reduced echelon form of the row space.  Only
    a pivot other than 1 or -1 divides its row through a Fraction."""
    basis = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        for p in [c for c in row if c in basis]:
            add_to(row, -row[p], basis[p])
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inv = -1 if row[p] == -1 else F1 / row[p]
            row = {c: x * inv for c, x in row.items()}
        for other in basis.values():
            if p in other:
                add_to(other, -other[p], row)
        basis[p] = row
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots
