"""Reference monomial arithmetic on sparse tuples, for checking the packed ints.

A monomial here is a tuple of ``(variable_key, exponent)`` pairs sorted with
the greatest variable first and no zero exponents.  This is the tuple-merge
code that the packed-integer monomials of `ladderdet.poly` replaced; native
tuple comparison of these monomials is antidiagonal-lex, which, with the
auxiliaries' keys above every grid key, is also an elimination order.
"""


def tuple_mono(pairs) -> tuple:
    """The tuple monomial of (Variable, exponent) pairs."""
    acc = {}
    for v, e in pairs:
        if e:
            acc[v.key] = acc.get(v.key, 0) + e
    return tuple(sorted(acc.items(), reverse=True))


def mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, ea = a[i]
        kb, eb = b[j]
        if ka == kb:
            out.append((ka, ea + eb))
            i += 1
            j += 1
        elif ka > kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: tuple, b: tuple):
    """a / b, or None when b does not divide a."""
    if not b:
        return a
    out = []
    i = 0
    na = len(a)
    for kb, eb in b:
        while i < na and a[i][0] > kb:
            out.append(a[i])
            i += 1
        if i >= na or a[i][0] != kb or a[i][1] < eb:
            return None
        if a[i][1] > eb:
            out.append((kb, a[i][1] - eb))
        i += 1
    out.extend(a[i:])
    return tuple(out)


def mono_divides(b: tuple, a: tuple) -> bool:
    """True when b | a."""
    i = 0
    na = len(a)
    for kb, eb in b:
        while i < na and a[i][0] > kb:
            i += 1
        if i >= na or a[i][0] != kb or a[i][1] < eb:
            return False
        i += 1
    return True


def mono_lcm(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, ea = a[i]
        kb, eb = b[j]
        if ka == kb:
            out.append((ka, ea if ea >= eb else eb))
            i += 1
            j += 1
        elif ka > kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(a: tuple) -> int:
    return sum(e for _, e in a)


def coprime(a: tuple, b: tuple) -> bool:
    """No variable in common: what the support masks test."""
    return not {k for k, _ in a} & {k for k, _ in b}
