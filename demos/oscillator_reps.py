"""Oscillator representations: exact fermionic, truncated bosonic.

Builds the fermionic rep of B1 (matrices over the exact scalar field),
checks the bracket homomorphism, and shows the quadratic Casimir
normal-ordering to the constant 3/4: 3/4 times the identity on the whole
Fock space. Then the bosonic rep of C1 at a finite
cutoff, in the occupation basis: the homomorphism and Casimir centrality
are decided on the normal-ordered oscillator polynomials, so they hold
on the whole Fock space, and each matrix is its polynomial's truncation.

    python3 demos/oscillator_reps.py
"""

from drinfeld_forge import (Scalar, bosonic_rep, build_series,
                            casimir_quadratic, fermionic_rep, parse_label,
                            verify_casimir_commutes, verify_rep_homomorphism)

SEP = "-" * 60


def print_exact(mat, indent="    "):
    for row in range(mat.dim):
        cells = [str(mat.entries.get((row, col), Scalar(0)))
                 for col in range(mat.dim)]
        print(indent + "[" + ", ".join(cells) + "]")


def main() -> None:
    alg = build_series("B", 1)
    rep = fermionic_rep(alg)
    print(f"fermionic rep of B1: "
          f"{rep.space_dim} x {rep.space_dim} exact matrices")
    for label in ("H1", "U1", "V1"):
        gid = parse_label(label)
        print(f"  rho({label}):")
        print_exact(rep.matrix(gid))
    print(" ", verify_rep_homomorphism(alg, rep).summary())

    cas = casimir_quadratic(alg)
    # normal-ordered, the Casimir is one word, the empty one: a constant
    [(word, value)] = rep.proof.casimir(cas).items()
    assert word == ()
    print(f"  quadratic Casimir, normal-ordered: the constant {value}, "
          f"{value} times the identity on the whole Fock space")
    print(" ", verify_casimir_commutes(alg, rep, cas, "quadratic").summary())
    print(SEP)

    alg = build_series("C", 1)
    rep = bosonic_rep(alg, cutoff=6)
    print(f"bosonic rep of C1 at cutoff 6: "
          f"{rep.space_dim} x {rep.space_dim} exact matrices")
    print("  rho(Q1,1):")
    print_exact(rep.matrix(parse_label("Q1,1")))
    print(" ", verify_rep_homomorphism(alg, rep).summary())
    cas = casimir_quadratic(alg)
    print(" ", verify_casimir_commutes(alg, rep, cas, "quadratic").summary())
    print("  exact on the whole Fock space; each matrix is its "
          "polynomial truncated at the cutoff")


if __name__ == "__main__":
    main()
