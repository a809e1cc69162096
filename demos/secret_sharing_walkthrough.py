"""Secret sharing on the dual of the Hermitian-surface code at q = 2:
deal shares, recover from a minimal access set, watch the same set
less one member be refused and a non-qualified subset learn nothing,
and rebuild the same access structure two ways.

Run:  python3 demos/secret_sharing_walkthrough.py
"""

import math

from qhcodes import (NotQualifiedError, Scheme, access_structure,
                     build_variety, deal, democracy_report, develop,
                     group_closure, load_fixture, perfectness_check,
                     recover, verify_example)


def main():
    v = build_variety("hermitian", 2, 3)
    scheme = Scheme.from_variety(v)
    print(f"scheme on {v.label}: {scheme.m} participants, "
          f"shares over GF({scheme.q})")

    acc = access_structure(v)
    rep = democracy_report(acc)
    print(f"{acc.count} minimal access sets, sizes {acc.size_profile()}, "
          f"every participant in {rep.uniform_count}")

    secret = 3
    dealt = deal(scheme, secret, seed=42)
    subset = acc.sorted_sets()[0]
    print(f"\ndealt secret {secret} with seed 42")
    print(f"smallest access set ({len(subset)} members) recovers: "
          f"{recover(scheme, subset, dealt.shares)}")

    short = subset[:-1]
    try:
        recover(scheme, short, dealt.shares)
    except NotQualifiedError as e:
        print(f"the same set without participant {subset[-1]}: {e}")

    # the tally counts the share vectors, words of the dual code with
    # the dealt share of that one participant, by the secret they carry
    lone = (subset[0],)
    probe = perfectness_check(scheme, lone)
    power = round(math.log(probe.secret_counts[secret], scheme.q))
    print(f"participant {subset[0]} alone: verdict {probe.verdict}; "
          f"{scheme.q}^{power} share vectors agree with that one share "
          f"for each of the {len(probe.secret_counts)} secrets")

    # the same structure by orbit development from two starter sets
    fx = load_fixture()
    group = group_closure(fx.generator_cycles, fx.degree)
    dev = develop(fx.starters, group)
    print(f"\ndevelopment: group of order {group.order} on {fx.degree} labels "
          f"turns {len(fx.starters)} starters into {dev.count} sets, "
          f"sizes {dev.size_profile()}")
    print(f"label-free agreement with the hyperplane structure: "
          f"{dev.size_profile() == acc.size_profile() and dev.count == acc.count}")
    print(f"shipped-example facts: {verify_example()}")


if __name__ == "__main__":
    main()
