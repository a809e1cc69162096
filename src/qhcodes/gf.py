"""Finite field arithmetic GF(p^m) on integer-encoded elements.

An element sum(c_i * x^i) of GF(p)[x] / (modulus) is encoded as the
integer sum(c_i * p^i).  Moduli come from a fixed table of Conway
polynomials, so encodings are canonical and stable across runs.  All
arithmetic goes through exp/log tables for the multiplicative group;
the class of x is always a primitive element.

For even m the field carries its index-2 subfield GF(q), q = p^(m/2),
realized as the fixed field of the Frobenius map x -> x^q, with an
explicit embedding table from the subfield's own encoding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# vadd looks sums up in a full order x order table only up to this
# order (8 MiB of int64); larger odd-characteristic fields add digit by
# digit, since building the table costs order^2 work and memory
ADD_TABLE_MAX_ORDER = 1024

# Conway polynomials, ascending coefficients (c0, c1, ..., 1), monic.
# Generated once by the standard definition (minimal primitive polynomial
# compatible with all proper subfields, under the usual twisted-lex order)
# and frozen here; construction re-verifies primitivity on every run.
CONWAY_POLYNOMIALS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 18): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 19): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 20): (1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (3, 7): (1, 0, 2, 0, 0, 0, 0, 1),
    (3, 8): (2, 2, 2, 0, 1, 2, 0, 0, 1),
    (3, 9): (1, 1, 2, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1),
    (3, 11): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (5, 5): (3, 4, 0, 0, 0, 1),
    (5, 6): (2, 0, 1, 4, 1, 0, 1),
    (5, 7): (3, 3, 0, 0, 0, 0, 0, 1),
    (5, 8): (2, 4, 3, 0, 1, 0, 0, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
    (7, 5): (4, 1, 0, 0, 0, 1),
    (7, 6): (3, 6, 4, 5, 1, 0, 1),
    (7, 7): (4, 6, 0, 0, 0, 0, 0, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (11, 3): (9, 2, 0, 1),
    (11, 4): (2, 10, 8, 0, 1),
    (11, 5): (9, 0, 10, 0, 0, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 12, 1),
    (13, 3): (11, 2, 0, 1),
    (13, 4): (2, 12, 3, 0, 1),
    (13, 5): (11, 4, 0, 0, 0, 1),
    (17, 1): (14, 1),
    (17, 2): (3, 16, 1),
    (17, 3): (14, 1, 0, 1),
    (17, 4): (3, 10, 7, 0, 1),
    (19, 1): (17, 1),
    (19, 2): (2, 18, 1),
    (19, 3): (17, 4, 0, 1),
    (19, 4): (2, 11, 2, 0, 1),
    (23, 1): (18, 1),
    (23, 2): (5, 21, 1),
    (23, 3): (18, 2, 0, 1),
    (23, 4): (5, 19, 3, 0, 1),
    (29, 1): (27, 1),
    (29, 2): (2, 24, 1),
    (29, 3): (27, 2, 0, 1),
    (29, 4): (2, 15, 2, 0, 1),
    (31, 1): (28, 1),
    (31, 2): (3, 29, 1),
    (31, 3): (28, 1, 0, 1),
    (31, 4): (3, 16, 3, 0, 1),
    (37, 1): (35, 1),
    (37, 2): (2, 33, 1),
    (41, 1): (35, 1),
    (41, 2): (6, 38, 1),
    (43, 1): (40, 1),
    (43, 2): (3, 42, 1),
    (47, 1): (42, 1),
    (47, 2): (5, 45, 1),
    (53, 1): (51, 1),
    (53, 2): (2, 49, 1),
    (59, 1): (57, 1),
    (59, 2): (2, 58, 1),
    (61, 1): (59, 1),
    (61, 2): (2, 60, 1),
    (67, 1): (65, 1),
    (67, 2): (2, 63, 1),
    (71, 1): (64, 1),
    (71, 2): (7, 69, 1),
    (73, 1): (68, 1),
    (73, 2): (5, 70, 1),
    (79, 1): (76, 1),
    (79, 2): (3, 78, 1),
    (83, 1): (81, 1),
    (83, 2): (2, 82, 1),
    (89, 1): (86, 1),
    (89, 2): (3, 82, 1),
    (97, 1): (92, 1),
    (97, 2): (5, 96, 1),
}


class FieldError(ValueError):
    pass


class SquareTestInEvenCharError(FieldError):
    """is_square was asked for in characteristic 2, where everything is a square."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _add_digits(p: int, m: int, a, b):
    """Sum of the m-digit base-p encodings a and b, digit by digit mod p:
    Python ints, or numpy integer arrays, broadcast, in their dtype."""
    out, shift = 0, 1
    for _ in range(m):
        out = out + (a % p + b % p) % p * shift
        a, b, shift = a // p, b // p, shift * p
    return out


class FiniteField:
    """Arithmetic context for GF(p^m).  Elements are ints in [0, p^m);
    dtype is the narrowest unsigned dtype that holds every one."""

    def __init__(self, p: int, m: int, modulus=None):
        # only prime p and m >= 1 are tabulated; the table bounds the
        # order (at most 2^20) and so the size of the log tables
        if (p, m) not in CONWAY_POLYNOMIALS:
            raise FieldError(f"no modulus table entry for GF({p}^{m})")
        if modulus is None:
            modulus = CONWAY_POLYNOMIALS[(p, m)]
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree m")
        self.p = p
        self.m = m
        self.order = p ** m
        self.dtype = np.min_scalar_type(self.order - 1)
        self.modulus = modulus
        self._build_tables()
        self._add_flat = None
        self.subfield = None
        self.embed_table = None
        self._down = None
        if m % 2 == 0 and m > 1:
            self._attach_subfield()

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        p, m, order = self.p, self.m, self.order
        exp = np.zeros(order - 1, dtype=np.int64)
        log = np.full(order, -1, dtype=np.int64)
        # step through powers of x, reducing by the modulus; encoding of a
        # coefficient vector is its base-p value
        coeffs = [0] * m
        coeffs[0] = 1
        for i in range(order - 1):
            enc = 0
            for j in range(m - 1, -1, -1):
                enc = enc * p + coeffs[j]
            if log[enc] != -1:
                raise FieldError(
                    f"modulus {self.modulus} over GF({p}) is not primitive: "
                    f"x^{i} repeats x^{log[enc]}")
            exp[i] = enc
            log[enc] = i
            # multiply by x
            carry = coeffs[m - 1]
            for j in range(m - 1, 0, -1):
                coeffs[j] = coeffs[j - 1]
            coeffs[0] = 0
            if carry:
                for j in range(m):
                    coeffs[j] = (coeffs[j] - carry * self.modulus[j]) % p
        if int(log[0]) != -1 or np.any(log[1:] == -1):
            # powers of x failed to cover the nonzero residues, so the
            # quotient ring has zero divisors
            raise FieldError(f"modulus {self.modulus} over GF({p}) is reducible")
        self.exp = exp
        self.log = log

    def _attach_subfield(self):
        q = self.p ** (self.m // 2)
        self.sub_order = q
        sub = make_field(self.p, self.m // 2)
        step = (self.order - 1) // (q - 1)
        embed = np.zeros(q, dtype=np.int64)
        for e in range(1, q):
            embed[e] = self.exp[(int(sub.log[e]) * step) % (self.order - 1)]
        # Conway compatibility makes e -> embed[e] a field isomorphism onto
        # the fixed field of x -> x^q; check the generator really is a root
        # of the subfield modulus
        root = int(embed[sub.exp[1]]) if q > 2 else int(embed[1])
        acc = 0
        power = 1
        for c in sub.modulus:
            if c:
                acc = self.add(acc, self.mul(c % self.p, power))
            power = self.mul(power, root)
        if acc != 0:
            raise FieldError("subfield embedding is incompatible with the modulus table")
        down = np.full(self.order, -1, dtype=np.int64)
        down[embed] = np.arange(q)
        self.subfield = sub
        self.embed_table = embed
        self._down = down

    # -- scalar arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return _add_digits(self.p, self.m, a, b)

    def neg(self, a: int) -> int:
        # p - 1 encodes -1
        return self.mul(self.p - 1, a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.order - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.exp[(-int(self.log[a])) % (self.order - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return int(self.exp[(int(self.log[a]) * k) % (self.order - 1)])

    # -- subfield structure ----------------------------------------------

    def _require_subfield(self):
        if self.subfield is None:
            raise FieldError(f"{self!r} has odd degree {self.m}, no index-2 subfield")

    def frobenius_q(self, a: int) -> int:
        """x -> x^q for q = p^(m/2), the involution fixing GF(q)."""
        self._require_subfield()
        return self.pow(a, self.sub_order)

    def to_subfield(self, a: int) -> int:
        """Encoding of a in the GF(q) context; a must lie in the subfield."""
        self._require_subfield()
        e = int(self._down[a])
        if e < 0:
            raise FieldError(f"element {a} is not in GF({self.sub_order})")
        return e

    def is_square(self, a: int) -> bool:
        if self.p == 2:
            raise SquareTestInEvenCharError(
                "squareness is trivial in characteristic 2; use the trace condition")
        if a == 0:
            return True
        return int(self.log[a]) % 2 == 0

    def trace_to_prime(self, a: int) -> int:
        """Absolute trace sum(a^(p^i), i < m) down to GF(p), as an int < p."""
        t = 0
        y = a
        for _ in range(self.m):
            t = self.add(t, y)
            y = self.pow(y, self.p)
        if t >= self.p:
            raise FieldError(f"absolute trace landed outside GF({self.p})")
        return t

    # -- vectorized arithmetic on numpy int arrays ------------------------

    def vadd(self, a, b):
        """Sums in the operands' dtype, so narrow rows stay narrow."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        flat = self.add_flat
        dtype = np.result_type(a, b)
        if flat is not None:
            # one index a * order + b, in place in the operands' dtype widened
            # to hold order^2 - 1; taken a 128 KiB intp slice at a time
            a, b = np.broadcast_arrays(a, b)
            it = np.promote_types(dtype, np.min_scalar_type(self.order ** 2 - 1))
            idx = np.multiply(a, self.order, dtype=it, casting="unsafe")
            idx = np.add(idx, b, out=idx, casting="unsafe").reshape(-1)
            out = np.empty(idx.size, dtype=flat.dtype)
            for at in range(0, idx.size, 1 << 14):
                np.take(flat, idx[at:at + (1 << 14)], out=out[at:at + (1 << 14)])
            del idx  # before the cast allocates
            return out.reshape(np.shape(a)).astype(dtype, copy=False)
        return _add_digits(self.p, self.m, np.asarray(a, dtype=dtype),
                           np.asarray(b, dtype=dtype))

    @property
    def add_flat(self):
        """Flattened addition table in the field's dtype, or None above
        ADD_TABLE_MAX_ORDER, where vadd adds digit by digit."""
        if self._add_flat is None and self.order <= ADD_TABLE_MAX_ORDER:
            e = np.arange(self.order)
            out = _add_digits(self.p, self.m, e[:, None], e[None, :])
            self._add_flat = out.reshape(-1).astype(self.dtype)
        return self._add_flat

    def vmul(self, a, b):
        la = self.log[a]
        lb = self.log[b]
        out = self.exp[(la + lb) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def scalar_mul_row(self, c: int):
        """Lookup row e -> c*e over all encodings."""
        return self.vmul(c, np.arange(self.order))

    def pow_row(self, k: int):
        """Lookup row e -> e^k over all encodings (k >= 1)."""
        e = np.arange(self.order)
        return np.where(e == 0, 0, self.exp[(self.log[e] * k) % (self.order - 1)])

    def vneg(self, a):
        if self.p == 2:
            return a
        return self.scalar_mul_row(self.neg(1))[a]

    def serialize(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FiniteField:
    """Field for GF(p^m) with the tabulated Conway modulus, cached."""
    return FiniteField(p, m)


def field_for_order(q: int) -> FiniteField:
    """Field whose order is the prime power q."""
    p, m = factor_prime_power(q)
    return make_field(p, m)


def quadratic_field(q: int) -> FiniteField:
    """GF(q^2) for the prime power q, which carries GF(q) as its subfield."""
    p, m = factor_prime_power(q)
    return make_field(p, 2 * m)


def factor_prime_power(q: int):
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, m
