"""Regenerate the frozen oracle constants used by the test suite.

Run directly (``python tests/oracles.py``) to print every independent
value the tests pin.  The flow values come from a 40-digit adaptive Taylor
integration, the special-function values from 40-digit series evaluation,
so each number printed to 17 significant digits fixes the double it
rounds to.  Tests never
import this module; it exists so the constants can be audited or rebuilt.
"""
import mpmath as mp

mp.mp.dps = 40

ALPHA, BETA, P = mp.mpf("0.05"), mp.mpf("0.3"), mp.mpf("0.4")


def rhs(t, y):
    d, l = y
    return [ALPHA * d * (1 - d) - P * d * l, P * d * l - BETA * l]


def ml(alpha, beta, z, terms=300):
    return sum(mp.mpf(z) ** k / mp.gamma(mp.mpf(alpha) * k + beta)
               for k in range(terms))


def main():
    flow = mp.odefun(rhs, 0, [mp.mpf("0.2"), mp.mpf("0.3")], tol=1e-30)
    for t in ("0.125", "0.25", "10"):
        d, l = flow(mp.mpf(t))
        print(f"flow({t}) = ({mp.nstr(d, 17)}, {mp.nstr(l, 17)})")

    print("gamma(1/2) =", mp.nstr(mp.gamma(mp.mpf(1) / 2), 17))
    print("B(100, 71.5) =", mp.nstr(mp.beta(100, mp.mpf("71.5")), 18))
    # the scalar test equation's solution at t = 1, for each order tested
    for alpha in ("0.5", "0.8", "0.95", "1"):
        print(f"E_{{{alpha},1}}(-1) =", mp.nstr(ml(alpha, 1, -1), 17))
    print("E_{0.95,1}(-2.5) =", mp.nstr(ml("0.95", 1, "-2.5"), 17))
    print("E_{0.5,1}(2) =", mp.nstr(ml("0.5", 1, 2), 17))
    print("E_{1.5,0.5}(2) =", mp.nstr(ml("1.5", mp.mpf("0.5"), 2), 17))

    sig = mp.mpf("0.95")
    for m in (1, 2, 10, 100, 1000):
        c = (m + 1) ** (sig + 1) + (m - 1) ** (sig + 1) - 2 * m ** (sig + 1)
        print(f"trapezoid kernel m={m}: {mp.nstr(c, 17)}")
    for n in (0, 1, 5, 100, 1000):
        a0 = mp.mpf(n) ** (sig + 1) - (n - sig) * (n + 1) ** sig
        print(f"first corrector weight n={n}: {mp.nstr(a0, 17)}")

    phi = (1 - mp.e ** (-BETA * mp.mpf("0.25"))) / BETA
    print("mickens phi(0.25) =", mp.nstr(phi, 17))
    xi = 1 + ALPHA * phi
    print("mickens region bound =",
          mp.nstr((4 * ALPHA ** 2 + xi * BETA ** 2) / (4 * ALPHA * BETA), 17))
    d0, l0 = mp.mpf("0.2"), mp.mpf("0.3")
    d1 = (1 + ALPHA * phi) * d0 / (1 + P * phi * l0 + ALPHA * phi * d0)
    l1 = (1 + P * phi * d1) * l0 / (1 + BETA * phi)
    print(f"mickens step = ({mp.nstr(d1, 17)}, {mp.nstr(l1, 17)})")


if __name__ == "__main__":
    main()
