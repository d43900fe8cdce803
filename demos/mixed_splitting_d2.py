"""A non-canonical splitting of D2: rotate the Cartans pairwise.

The splitting spec "mixed:pairs=1-2" rotates Cartan directions 1 and 2 into
each other instead of rotating each H_i against its central partner.
The rotated centrals drop out of the double, the halves still close
and reconstruct the bracket, and self-duality survives in conjugated
form: the s- constants are minus the i-conjugates of the s+ ones. The
closed-form cocommutator reads the rotation blocks, so it agrees with
the structure-derived one here as in the canonical splitting.

    python3 demos/mixed_splitting_d2.py
"""

from drinfeld_forge import (split, verify_closure, verify_compatibility,
                            verify_delta_agreement, verify_reconstruction,
                            verify_self_duality)


def main() -> None:
    triple = split("D", 2, "mixed:pairs=1-2")
    alg = triple.double
    print(f"double: {alg.series}{alg.rank} restricted to dimension "
          f"{alg.dim} (rotated centrals removed)")
    print("basis:", ", ".join(gid.label for gid in alg.basis))

    print("half s+:")
    for gid in triple.splus:
        print(f"  {gid.label} = {triple.elem(gid)}")
    print("half s-:")
    for gid in triple.sminus:
        print(f"  {gid.label} = {triple.elem(gid)}")

    for check in (verify_closure, verify_compatibility,
                  verify_reconstruction, verify_self_duality,
                  verify_delta_agreement):
        print(" ", check(triple).summary())

    print("note: the central-twist check is defined for the canonical")
    print("splitting only; the CLI skips it automatically for mixed specs.")


if __name__ == "__main__":
    main()
