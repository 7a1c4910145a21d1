//! The workspace's **one sanctioned environment entry point** (fairlint
//! rule R4).
//!
//! Environment variables are ambient, undeclared inputs; scattering
//! `std::env::var` calls through the tree makes it impossible to audit
//! which knobs affect a Monte-Carlo run. Every runtime environment read in
//! the workspace goes through [`env_usize`] — fairlint flags any other
//! call site — so the full knob surface is this module's callers:
//! `FAIR_TRIALS` (trial count, `fair-bench`). The worker count has no
//! environment knob; it is `--jobs` ([`crate::scheduler::set_jobs`]).

/// Reads a positive integer from the environment variable `name`, falling
/// back to `default` when unset. A malformed or non-positive value is
/// reported on stderr (naming the variable, the raw value, and the cause
/// — see [`parse_env_usize`]) and the default applies.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(s) => parse_env_usize(name, &s, default).unwrap_or_else(|msg| {
            eprintln!("warning: {msg}");
            default
        }),
        Err(_) => default,
    }
}

/// Parses `raw` as the value of the environment knob `name`. On failure
/// the error message names the offending variable, quotes the raw value
/// verbatim, states why it was rejected, and says which default applies —
/// so a typo in `FAIR_TRIALS=10O0` is diagnosable from the warning alone.
pub fn parse_env_usize(name: &str, raw: &str, default: usize) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!(
            "ignoring {name}={raw:?}: zero is not a positive integer; using default {default}"
        )),
        Err(e) => Err(format!(
            "ignoring {name}={raw:?}: {e}; want a positive integer, using default {default}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_variable_yields_default() {
        assert_eq!(env_usize("FAIRLINT_TEST_UNSET_VAR", 42), 42);
    }

    #[test]
    fn valid_values_parse_with_surrounding_whitespace() {
        assert_eq!(parse_env_usize("FAIR_TRIALS", " 250 ", 1000), Ok(250));
        assert_eq!(parse_env_usize("FAIR_TRIALS", "8", 1), Ok(8));
    }

    #[test]
    fn malformed_value_names_the_variable_and_raw_value() {
        let msg = parse_env_usize("FAIR_TRIALS", "10O0", 1000).unwrap_err();
        assert!(msg.contains("FAIR_TRIALS"), "no variable name in: {msg}");
        assert!(msg.contains("\"10O0\""), "no raw value in: {msg}");
        assert!(msg.contains("invalid digit"), "no parse cause in: {msg}");
        assert!(msg.contains("default 1000"), "no default in: {msg}");
    }

    #[test]
    fn zero_is_rejected_with_a_specific_message() {
        let msg = parse_env_usize("FAIR_TRIALS", "0", 4).unwrap_err();
        assert!(msg.contains("FAIR_TRIALS=\"0\""), "bad message: {msg}");
        assert!(msg.contains("not a positive integer"), "bad message: {msg}");
        assert!(msg.contains("default 4"), "bad message: {msg}");
    }

    #[test]
    fn negative_and_garbage_values_report_the_cause() {
        let msg = parse_env_usize("FAIR_TRIALS", "-3", 1000).unwrap_err();
        assert!(msg.contains("FAIR_TRIALS=\"-3\""), "bad message: {msg}");
        let msg = parse_env_usize("FAIR_TRIALS", "", 1000).unwrap_err();
        assert!(
            msg.contains("cannot parse integer from empty string"),
            "bad message: {msg}"
        );
    }
}
