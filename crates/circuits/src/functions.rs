//! Ready-made circuits for the functions the paper's experiments evaluate.
//!
//! Each constructor documents which experiment uses it. All inputs are
//! little-endian bit vectors; multi-party inputs are concatenated in party
//! order.

use crate::builder::Builder;
use crate::circuit::Circuit;

/// The swap function f_swp(x₁, x₂) = (x₂, x₁) on `bits`-bit inputs
/// (Theorem 4 / Lemma 7: the lower-bound function for two-party fairness).
///
/// Output layout: x₂ then x₁.
pub fn swap(bits: usize) -> Circuit {
    let mut b = Builder::new();
    let x1 = b.inputs(bits);
    let x2 = b.inputs(bits);
    let mut out = x2;
    out.extend(x1);
    b.finish(out)
}

/// The logical AND ∧ : {0,1}² → {0,1} (Section 5 / Appendix C.5: the
/// function computed by the leaky protocol Π̃).
pub fn and1() -> Circuit {
    let mut b = Builder::new();
    let x = b.inputs(1);
    let y = b.inputs(1);
    let o = b.and(x[0], y[0]);
    b.finish(vec![o])
}

/// The concatenation function f(x₁, …, xₙ) = x₁ ∥ … ∥ xₙ (Lemmas 12/13/15:
/// the lower-bound function for multi-party fairness).
pub fn concat(n: usize, bits: usize) -> Circuit {
    let mut b = Builder::new();
    let mut out = Vec::with_capacity(n * bits);
    for _ in 0..n {
        out.extend(b.inputs(bits));
    }
    b.finish(out)
}

/// The millionaires' function: outputs 1 iff x₁ > x₂ (example workload).
pub fn millionaires(bits: usize) -> Circuit {
    let mut b = Builder::new();
    let x1 = b.inputs(bits);
    let x2 = b.inputs(bits);
    let g = b.gt(&x1, &x2);
    b.finish(vec![g])
}

/// Equality test: outputs 1 iff x₁ = x₂ (example workload).
pub fn equality(bits: usize) -> Circuit {
    let mut b = Builder::new();
    let x1 = b.inputs(bits);
    let x2 = b.inputs(bits);
    let e = b.eq(&x1, &x2);
    b.finish(vec![e])
}

/// n-party XOR (a jointly unbiased coin if each party contributes a random
/// bit): outputs x₁ ⊕ … ⊕ xₙ.
pub fn xor_n(n: usize) -> Circuit {
    let mut b = Builder::new();
    let ins: Vec<_> = (0..n).map(|_| b.inputs(1)[0]).collect();
    let mut acc = ins[0];
    for &w in &ins[1..] {
        acc = b.xor(acc, w);
    }
    b.finish(vec![acc])
}

/// Sum of n `bits`-bit inputs, modulo 2^bits (lottery/auction workload).
pub fn sum_mod(n: usize, bits: usize) -> Circuit {
    let mut b = Builder::new();
    let inputs: Vec<Vec<_>> = (0..n).map(|_| b.inputs(bits)).collect();
    let mut acc = inputs[0].clone();
    for x in &inputs[1..] {
        let s = b.add(&acc, x);
        acc = s[..bits].to_vec(); // drop the carry: mod 2^bits
    }
    b.finish(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{bits_to_u64, u64_to_bits};

    #[test]
    fn swap_swaps() {
        let c = swap(4);
        let mut input = u64_to_bits(0b1010, 4);
        input.extend(u64_to_bits(0b0110, 4));
        let out = c.eval(&input);
        assert_eq!(bits_to_u64(&out[..4]), 0b0110);
        assert_eq!(bits_to_u64(&out[4..]), 0b1010);
    }

    #[test]
    fn and1_truth_table() {
        let c = and1();
        assert_eq!(c.eval(&[true, true]), vec![true]);
        assert_eq!(c.eval(&[true, false]), vec![false]);
        assert_eq!(c.eval(&[false, true]), vec![false]);
        assert_eq!(c.eval(&[false, false]), vec![false]);
        assert_eq!(c.and_count(), 1);
    }

    #[test]
    fn concat_concatenates() {
        let c = concat(3, 2);
        let mut input = u64_to_bits(1, 2);
        input.extend(u64_to_bits(2, 2));
        input.extend(u64_to_bits(3, 2));
        let out = c.eval(&input);
        assert_eq!(bits_to_u64(&out[..2]), 1);
        assert_eq!(bits_to_u64(&out[2..4]), 2);
        assert_eq!(bits_to_u64(&out[4..]), 3);
    }

    #[test]
    fn millionaires_compares() {
        let c = millionaires(8);
        for (a, b) in [(200u64, 100u64), (100, 200), (5, 5), (0, 255)] {
            let mut input = u64_to_bits(a, 8);
            input.extend(u64_to_bits(b, 8));
            assert_eq!(c.eval(&input), vec![a > b], "{a} > {b}");
        }
    }

    #[test]
    fn equality_checks() {
        let c = equality(6);
        for (a, b) in [(9u64, 9u64), (9, 10), (0, 63)] {
            let mut input = u64_to_bits(a, 6);
            input.extend(u64_to_bits(b, 6));
            assert_eq!(c.eval(&input), vec![a == b]);
        }
    }

    #[test]
    fn xor_n_is_parity() {
        let c = xor_n(5);
        assert_eq!(c.eval(&[true, false, true, true, false]), vec![true]);
        assert_eq!(c.eval(&[true, true, false, false, false]), vec![false]);
    }

    #[test]
    fn sum_mod_wraps() {
        let c = sum_mod(3, 4);
        let mut input = u64_to_bits(7, 4);
        input.extend(u64_to_bits(9, 4));
        input.extend(u64_to_bits(5, 4));
        assert_eq!(bits_to_u64(&c.eval(&input)), (7 + 9 + 5) % 16);
    }

    #[test]
    fn all_functions_validate() {
        for c in [
            swap(8),
            and1(),
            concat(4, 3),
            millionaires(8),
            equality(8),
            xor_n(3),
            sum_mod(4, 8),
        ] {
            assert!(c.validate().is_ok());
        }
    }
}
