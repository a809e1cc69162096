"""Walk through the smallest interesting configuration, q = 3 and r = 3:
build the hypersurface in PG(3, 9), compare the measured hyperplane
spectrum with the closed forms, and glance at the line spectrum.

Run:  python3 demos/spectrum_walkthrough.py
"""

from qhcodes import (build_variety, default_params, hyperplane_spectrum,
                     line_spectrum, predicted_line_sizes, predicted_spectrum,
                     surgery_check, validate_params)


def main():
    q, r = 3, 3
    params = default_params(q, r)
    print(f"first valid parameters: alpha={params.alpha}, beta={params.beta}")
    for clause in validate_params(params).clauses:
        print(f"  [{'ok' if clause.ok else 'XX'}] {clause.name}: {clause.detail}")

    v = build_variety("twisted", q, r)
    pred = predicted_spectrum(q, r, "twisted")
    print(f"\n{v.label}: {v.n} points "
          f"({v.affine_count()} affine, {v.n - v.affine_count()} at infinity); "
          f"closed form says {pred.N}")

    sp = hyperplane_spectrum(v)
    print(f"\nhyperplane spectrum over {sp.total} hyperplanes ({sp.engine}):")
    for size, count in sorted(sp.counts.items()):
        mark = "*" if size in pred.sizes else "?"
        print(f"  {mark} size {size:3d} on {count:4d} hyperplanes")
    print(f"predicted sizes: {list(pred.sizes)}")
    print(f"predicted counts match: {sp.counts == pred.counts}")

    # the two moments every 262-point set must satisfy; they pin the
    # generic count classes
    m1 = sum(s * c for s, c in sp.counts.items())
    m2 = sum(s * (s - 1) * c for s, c in sp.counts.items())
    print(f"\nfirst moment  {m1} == 262 * 91   -> {m1 == 262 * 91}")
    print(f"second moment {m2} == 262*261*10 -> {m2 == 262 * 261 * 10}")

    lp = line_spectrum(v)
    allowed = set(predicted_line_sizes(q))
    print(f"\nline spectrum over {lp.total} lines:")
    for size, count in sorted(lp.counts.items()):
        print(f"  size {size:2d} on {count:5d} lines "
              f"({'allowed' if size in allowed else 'UNEXPECTED'})")

    glue = surgery_check(params)
    print(f"\nsurgery identity (twisted vs quasi-hermitian window): {glue}")


if __name__ == "__main__":
    main()
