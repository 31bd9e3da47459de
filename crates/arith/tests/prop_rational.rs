//! Property tests pinning [`Rational`]'s arithmetic to the textbook
//! formulas. `+`, `−` and `·` take fast paths for zero and integer
//! operands; they, `÷` and `cmp` must return exactly what `Rational::new`
//! makes of the cross-multiplied formula, in lowest terms with a positive
//! denominator. Operands mix zero, small integers, fractions with
//! numerators and denominators up to about ±10⁶, and values near
//! `i64::MAX` (whose cross products still fit `i128`).

use has_arith::Rational;
use proptest::prelude::*;
use std::cmp::Ordering;

const BIG: i64 = 1_000_000;

fn arb_rational() -> impl Strategy<Value = Rational> {
    prop_oneof![
        Just(Rational::ZERO),
        (-BIG..=BIG).prop_map(Rational::from_int),
        (-BIG..=BIG, 1..=BIG).prop_map(|(n, d)| Rational::new(n as i128, d as i128)),
        (0..=BIG, any::<bool>()).prop_map(|(k, neg)| {
            let n = i64::MAX - k;
            Rational::from_int(if neg { -n } else { n })
        }),
        (0..=BIG, 1..=BIG).prop_map(|(k, d)| Rational::new((i64::MAX - k) as i128, d as i128)),
        (-BIG..=BIG, 0..=BIG)
            .prop_filter("non-zero numerator", |(n, _)| *n != 0)
            .prop_map(|(n, k)| Rational::new(n as i128, (i64::MAX - k) as i128)),
    ]
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn assert_lowest_terms(r: Rational) {
    assert!(r.denominator() > 0, "{r:?} has a non-positive denominator");
    if r.is_zero() {
        assert_eq!(r.denominator(), 1, "zero is 0/1");
    } else {
        assert_eq!(gcd(r.numerator(), r.denominator()), 1, "{r:?} not reduced");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn operations_match_the_textbook_formulas(x in arb_rational(), y in arb_rational()) {
        let (a, b) = (x.numerator(), x.denominator());
        let (c, d) = (y.numerator(), y.denominator());
        let cases = [
            ("+", x + y, Rational::new(a * d + c * b, b * d)),
            ("-", x - y, Rational::new(a * d - c * b, b * d)),
            ("*", x * y, Rational::new(a * c, b * d)),
        ];
        for (op, got, want) in cases {
            prop_assert_eq!(
                (got.numerator(), got.denominator()),
                (want.numerator(), want.denominator()),
                "{:?} {} {:?}", x, op, y
            );
            assert_lowest_terms(got);
        }
        if !y.is_zero() {
            let got = x / y;
            let want = Rational::new(a * d, b * c);
            prop_assert_eq!(
                (got.numerator(), got.denominator()),
                (want.numerator(), want.denominator()),
                "{:?} / {:?}", x, y
            );
            assert_lowest_terms(got);
        }
        let mut acc = x;
        acc += y;
        prop_assert_eq!(acc, x + y);
        prop_assert_eq!(x.cmp(&y), (a * d).cmp(&(c * b)), "{:?} cmp {:?}", x, y);
        prop_assert_eq!(x.cmp(&x), Ordering::Equal);
    }
}

#[test]
#[should_panic]
fn integer_product_past_i128_max_panics() {
    let big = Rational::new(1 << 100, 1);
    let _ = big * big;
}

#[test]
#[should_panic]
fn integer_sum_past_i128_max_panics() {
    let _ = Rational::new(i128::MAX, 1) + Rational::ONE;
}
