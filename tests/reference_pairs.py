"""Reference Gebauer-Moeller pair updates, for checking the one in groebner.

`ladderdet.groebner` builds pairs on the run's `Reducer`, whose entries
hold the leads and whose top-bit divisor index files them: the lcms and
quotients of a new lead are formed only with the leads that share a
variable with it, a lead coprime to it acts only through one divisor
search of that index (which is skipped when the new lead shares a variable
with every lead), and the initial build tests B once per pair, by
descending j, against the later leads that divide its lcm.  Two references
check it:

- `update_pairs` / `initial_pairs`: the update two rewrites back.  Its B_k
  scan tests a support-mask inclusion before calling `mono_divides`, the
  lcm groups are always sorted and each is compared with every minimal
  one before it, and the coprime-lead criterion is checked on the groups'
  members after the minimal lcms are known.  It
  returns a new pair dict; its insertion order differs, so it checks keys
  and lcms.
- `scan_update_pairs` / `scan_initial_pairs`: the update the lead index
  replaced.  It forms the lcm of the new lead with every lead, drops a
  minimal quotient that is itself a lead coprime to the new lead, and
  rescans the whole pair set for B at every lead.  It edits one pair dict
  in place, in the insertion order that groebner keeps, so it checks the
  order too.
"""

from ladderdet.poly import FIELD_BITS, MONO_ONE, mono_divides, mono_lcm, mono_mask


def update_pairs(lmG, masks, P, lmf, packing):
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
    for L in sorted(lcm_groups):
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


def initial_pairs(lmG, packing):
    masks = [mono_mask(lm, packing) for lm in lmG]
    P: dict = {}
    for n, lm in enumerate(lmG):
        P = update_pairs(lmG[:n], masks, P, lm, packing)
    return P


def scan_update_pairs(lmG, P, lmf, packing):
    n = len(lmG)
    guard, low = packing.guard, packing.low
    lcms = [mono_lcm(lm, lmf, guard) for lm in lmG]

    for ij, L in [(ij, L) for ij, L in P.items() if not (L - lmf) & guard]:
        i, j = ij
        if lcms[i] != L and lcms[j] != L:
            del P[ij]

    first = dict(zip(reversed(lcms), range(n - 1, -1, -1)))
    if lmf in first:
        minimal = [MONO_ONE]
    else:
        ones = guard >> FIELD_BITS
        quotients = [L - lmf for L in first]
        minimal = [q for q in quotients if q.bit_count() == 1 and q & ones]
        units = sum(minimal) << FIELD_BITS
        by_top: dict = {}
        for q in sorted([q for q in quotients if not (q + low) & units]):
            mask = bits = (q + low) & guard
            while bits:
                top = bits.bit_length()
                for d, dmask in by_top.get(top, ()):
                    if not dmask & ~mask and not (q - d) & guard:
                        break
                else:
                    bits ^= 1 << top - 1
                    continue
                break
            else:
                minimal.append(q)
                by_top.setdefault(mask.bit_length(), []).append((q, mask))

    maskf = (lmf + low) & guard
    leads = set(lmG)
    new = {}
    for q in minimal:
        if not (q + low) & maskf and q in leads:
            continue  # coprime-lead criterion
        L = q + lmf
        new[first[L], n] = L
    P.update(new)
    return new


def scan_initial_pairs(lmG, packing):
    P: dict = {}
    for n, lm in enumerate(lmG):
        scan_update_pairs(lmG[:n], P, lm, packing)
    return P
