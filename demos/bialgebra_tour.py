"""Cocommutators, the r-matrix, and the central twist on small instances.

    python3 demos/bialgebra_tour.py
"""

from drinfeld_forge import (build_r_matrix, canonical_triple,
                            cocommutator_from_structure, parse_label,
                            twisted_cartan_part, verify_coboundary,
                            verify_cybe, verify_delta_agreement, verify_twist)

SEP = "-" * 60


def show_wedge(label, wedge):
    print(f"  {label}:")
    if not wedge:
        print("    0")
        return
    for (ga, gb), coeff in sorted(wedge.items(),
                                  key=lambda kv: (kv[0][0].label,
                                                  kv[0][1].label)):
        print(f"    ({coeff}) {ga.label} ^ {gb.label}")


def main() -> None:
    triple = canonical_triple("A", 2)
    table = cocommutator_from_structure(triple)

    print("cocommutator of A2 on a simple and on a composite root:")
    show_wedge("delta(F1,2)", table[parse_label("F1,2")])
    show_wedge("delta(F1,3)", table[parse_label("F1,3")])
    print(SEP)

    print("the structure-derived and closed-form tables agree:")
    print(" ", verify_delta_agreement(triple).summary())
    print(SEP)

    rmat = build_r_matrix(triple)
    print("r-matrix skew parts (the nonskew part is the canonical")
    print("element of the pairing and drops out of delta):")
    show_wedge("root part", rmat["skew_root"])
    show_wedge("Cartan part", rmat["skew_cartan"])
    print(SEP)

    print("delta is the coboundary of r, and r solves the classical")
    print("Yang-Baxter equation:")
    print(" ", verify_coboundary(triple).summary())
    print(" ", verify_cybe(triple).summary())
    print(SEP)

    print("central twist: identifying every I_k in the A series makes")
    print("the Cartan part of r ad-invariant; in B/C/D setting I_k = 0")
    print("kills it outright.")
    for series, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 2)):
        tri = canonical_triple(series, rank)
        twisted, mode = twisted_cartan_part(tri)
        report = verify_twist(tri)
        print(f"  {series}{rank}: mode={mode}, "
              f"twisted terms={len(twisted)}, "
              f"{'ok' if report.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
