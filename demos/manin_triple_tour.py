"""Walk through the canonical Manin triple of A1 piece by piece.

Shows the rotated basis, the pairing matrix, the crossed brackets
[z^p, Z_q], and where the self-duality sign shows up.

    python3 demos/manin_triple_tour.py
"""

from drinfeld_forge import (ZERO, canonical_triple, crossed_brackets,
                            parse_label)

SEP = "-" * 60


def fmt_vector(vec, basis):
    if not vec:
        return "0"
    return " + ".join(f"({coeff}) {basis[pos].label}"
                      for pos, coeff in sorted(vec.items()))


def main() -> None:
    triple = canonical_triple("A", 1)
    alg = triple.double

    print(f"double: {alg.series}{alg.rank}, dimension {alg.dim}")
    print(SEP)

    print("isotropic half s+ (rotated Cartans, then positive roots):")
    for gid in triple.splus:
        print(f"  {gid.label} = {triple.elem(gid)}")
    print("isotropic half s-:")
    for gid in triple.sminus:
        print(f"  {gid.label} = {triple.elem(gid)}")
    print(SEP)

    print("pairing <s-_j, s+_k> (rows j, columns k):")
    for mgid in triple.sminus:
        row = [triple.pairing.get((mgid, pgid), ZERO) for pgid in triple.splus]
        print("  [" + ", ".join(str(v) for v in row) + "]")
    print(SEP)

    print("crossed brackets [z^p, Z_q], split into the s- part (alpha)")
    print("and the s+ part (beta):")
    crossed = crossed_brackets(triple)
    for (p, q), (alpha, beta) in sorted(crossed.items()):
        if not alpha and not beta:
            continue
        left = triple.sminus[p].label
        right = triple.splus[q].label
        print(f"  [{left}, {right}] = "
              f"{fmt_vector(alpha, triple.sminus)}  |  "
              f"{fmt_vector(beta, triple.splus)}")
    print(SEP)

    print("self-duality: the s- constants negate the s+ constants.")
    f12 = parse_label("F1,2")
    f21 = parse_label("F2,1")
    print(f"  s+ root bracket  [F1,2 seen in s+]: "
          f"{alg.bracket_gens(f12, f21)}")
    print("  verify_self_duality checks c^(p,q)_r == -f^r_(p,q) for all")
    print("  index triples; see tests/test_double.py for the exact grid.")


if __name__ == "__main__":
    main()
