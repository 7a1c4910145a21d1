//! Function specifications for ideal SFE functionalities: `Value` inputs,
//! per-party outputs of the spec's output type.

use std::sync::Arc;

use fair_runtime::Value;
use rand::rngs::StdRng;

/// The result of evaluating an [`IdealSpec`]: ground-truth facts for the
/// ledger (at minimum the key `"y"` with the global output) and one private
/// output per party.
#[derive(Clone, Debug)]
pub struct IdealOutput<O = Value> {
    /// Facts recorded into the execution ledger.
    pub facts: Vec<(String, Value)>,
    /// Per-party private outputs (length = number of parties).
    pub per_party: Vec<O>,
}

/// A (possibly randomized) n-party function, as evaluated by a trusted
/// party. Inputs are [`Value`]s; each party's output is an `O`, so a
/// functionality whose outputs carry crypto objects hands them over typed
/// and the receiving party stores them as they are.
#[derive(Clone)]
pub struct IdealSpec<O = Value> {
    name: String,
    n: usize,
    #[allow(clippy::type_complexity)]
    eval: Arc<dyn Fn(&[Value], &mut StdRng) -> IdealOutput<O> + Send + Sync>,
}

impl<O> core::fmt::Debug for IdealSpec<O> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IdealSpec")
            .field("name", &self.name)
            .field("n", &self.n)
            .finish()
    }
}

impl IdealSpec {
    /// A deterministic function with one *global* output that every party
    /// receives (the paper's wlog normal form). Records the fact `"y"`.
    pub fn global<F>(name: &str, n: usize, f: F) -> IdealSpec
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        IdealSpec::new(name, n, move |inputs, _rng| {
            let y = f(inputs);
            IdealOutput {
                facts: vec![("y".to_string(), y.clone())],
                per_party: vec![y; inputs.len()],
            }
        })
    }
}

impl<O> IdealSpec<O> {
    /// Creates a spec from an arbitrary evaluation closure.
    pub fn new<F>(name: &str, n: usize, eval: F) -> IdealSpec<O>
    where
        F: Fn(&[Value], &mut StdRng) -> IdealOutput<O> + Send + Sync + 'static,
    {
        IdealSpec {
            name: name.to_string(),
            n,
            eval: Arc::new(eval),
        }
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Evaluates the function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`IdealSpec::n`].
    pub fn eval(&self, inputs: &[Value], rng: &mut StdRng) -> IdealOutput<O> {
        assert_eq!(inputs.len(), self.n, "ideal spec arity mismatch");
        let out = (self.eval)(inputs, rng);
        assert_eq!(
            out.per_party.len(),
            self.n,
            "ideal spec output arity mismatch"
        );
        out
    }
}

/// The swap function f_swp(x₁, x₂) = (x₂, x₁) as a global-output spec: the
/// global output is the pair (x₂, x₁).
pub fn swap_spec() -> IdealSpec {
    IdealSpec::global("f_swp", 2, |inputs| {
        Value::pair(inputs[1].clone(), inputs[0].clone())
    })
}

/// The n-party concatenation function of Lemma 12.
pub fn concat_spec(n: usize) -> IdealSpec {
    IdealSpec::global("f_concat", n, |inputs| Value::Tuple(inputs.to_vec()))
}

/// The logical AND of two bits (Section 5's example).
pub fn and_spec() -> IdealSpec {
    IdealSpec::global("f_and", 2, |inputs| {
        let a = inputs[0].as_scalar().unwrap_or(0) & 1;
        let b = inputs[1].as_scalar().unwrap_or(0) & 1;
        Value::Scalar(a & b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn global_spec_gives_everyone_y_and_records_fact() {
        let spec = swap_spec();
        let mut rng = StdRng::seed_from_u64(0);
        let out = spec.eval(&[Value::Scalar(1), Value::Scalar(2)], &mut rng);
        let y = Value::pair(Value::Scalar(2), Value::Scalar(1));
        assert_eq!(out.per_party, vec![y.clone(), y.clone()]);
        assert_eq!(out.facts, vec![("y".to_string(), y)]);
    }

    #[test]
    fn concat_spec_tuples_inputs() {
        let spec = concat_spec(3);
        let mut rng = StdRng::seed_from_u64(0);
        let ins = vec![Value::Scalar(7), Value::Scalar(8), Value::Scalar(9)];
        let out = spec.eval(&ins, &mut rng);
        assert_eq!(out.per_party[0], Value::Tuple(ins));
    }

    #[test]
    fn and_spec_truth_table() {
        let spec = and_spec();
        let mut rng = StdRng::seed_from_u64(0);
        for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            let out = spec.eval(&[Value::Scalar(a), Value::Scalar(b)], &mut rng);
            assert_eq!(out.per_party[0], Value::Scalar(a & b));
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_checked() {
        let spec = and_spec();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = spec.eval(&[Value::Scalar(1)], &mut rng);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", and_spec()).contains("f_and"));
    }
}
