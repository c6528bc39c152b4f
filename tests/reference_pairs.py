"""Reference Gebauer-Moeller pair update, for checking the one in groebner.

This is the pair update that the leaner `ladderdet.groebner._update_pairs`
replaced: the B_k scan tests a support-mask inclusion before calling
`mono_divides`, the lcm groups are always sorted with the order's key and
each is compared with every minimal one before it, and the coprime-lead
criterion is checked on the groups' members after the minimal lcms are
known.  This one returns a new pair dict {(i, j): lcm of the leads of i
and j}; the one in groebner edits its one pair dict in place into the same
dict and returns the pairs it added, and needs neither the leads' masks
nor the order.
"""

from ladderdet.poly import mono_divides, mono_lcm, mono_mask


def update_pairs(lmG, masks, P, lmf, order, packing):
    n = len(lmG)
    guard = packing.guard
    maskf = mono_mask(lmf, packing)
    lcms = [mono_lcm(lm, lmf, guard) for lm in lmG]

    kept = {}
    for (i, j), lcm_ij in P.items():
        if (
            maskf & ~(masks[i] | masks[j])
            or lcms[i] == lcm_ij
            or lcms[j] == lcm_ij
            or not mono_divides(lmf, lcm_ij, guard)
        ):
            kept[i, j] = lcm_ij

    lcm_groups: dict = {}
    for i, L in enumerate(lcms):
        lcm_groups.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(lcm_groups, key=order.key):
        mask_L = maskf | masks[lcm_groups[L][0]]
        for Lmin, mask in minimal:
            if not mask & ~mask_L and mono_divides(Lmin, L, guard):
                break
        else:
            minimal.append((L, mask_L))
    for L, _ in minimal:
        members = lcm_groups[L]
        if any(not masks[i] & maskf for i in members):
            continue  # coprime-lead criterion
        kept[members[0], n] = L
    return kept


def initial_pairs(lmG, order, packing):
    masks = [mono_mask(lm, packing) for lm in lmG]
    P: dict = {}
    for n, lm in enumerate(lmG):
        P = update_pairs(lmG[:n], masks, P, lm, order, packing)
    return P
