//! Correctness oracles that do not share the path under test.
//!
//! A served plan is checked against a cold concrete
//! `GmcOptimizer::solve` of the bound chain (and, on the dense
//! `wire_hot_long` chains, against the classic `O(n³)` matrix chain
//! optimum); a compiled problem is checked against the retained
//! reference solver. Costs compare by their `f64` bits.

use crate::workloads::Serving;
use gmc::{FlopCount, GmcOptimizer, GmcSolution, InferenceMode};
use gmc_kernels::KernelRegistry;
use serde::Value;

/// The parts of a plan every check compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// `f64` bits of the total cost.
    pub cost_bits: u64,
    /// `f64` bits of the FLOP count.
    pub flops_bits: u64,
    /// The chosen parenthesization.
    pub parenthesization: String,
    /// Kernel names in execution order.
    pub kernels: Vec<String>,
}

impl Answer {
    /// The answer a solution gives.
    pub fn of(solution: &GmcSolution<f64>) -> Answer {
        Answer {
            cost_bits: solution.cost().to_bits(),
            flops_bits: solution.flops().to_bits(),
            parenthesization: solution.parenthesization().to_owned(),
            kernels: solution
                .kernel_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
        }
    }

    /// Reads a wire reply line: the answer and the cache outcome, or
    /// why the line is not a successful reply.
    pub fn from_reply(line: &str) -> Result<(Answer, String), String> {
        let value: Value =
            serde_json::from_str(line.trim_end()).map_err(|e| format!("unparsable reply: {e}"))?;
        if let Ok(Value::String(error)) = value.get_field("error") {
            return Err(format!("error reply: {error}"));
        }
        let string = |name: &str| match value.get_field(name) {
            Ok(Value::String(s)) => Ok(s.clone()),
            _ => Err(format!("reply lacks string `{name}`")),
        };
        let number = |name: &str| match value.get_field(name) {
            Ok(Value::Number(x)) => Ok(*x),
            _ => Err(format!("reply lacks number `{name}`")),
        };
        let kernels = match value.get_field("kernels") {
            Ok(Value::Array(items)) => items
                .iter()
                .map(|k| match k {
                    Value::String(s) => Ok(s.clone()),
                    _ => Err("non-string kernel name".to_owned()),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("reply lacks `kernels`".to_owned()),
        };
        let answer = Answer {
            cost_bits: number("cost")?.to_bits(),
            flops_bits: number("flops")?.to_bits(),
            parenthesization: string("parenthesization")?,
            kernels,
        };
        Ok((answer, string("outcome")?))
    }
}

/// Checks one wire reply against the expected answer; returns the
/// cache outcome it reports.
pub fn check_reply(line: &str, expected: &Answer) -> Result<String, String> {
    let (got, outcome) = Answer::from_reply(line)?;
    if got == *expected {
        Ok(outcome)
    } else {
        Err(format!(
            "reply {got:?} differs from the oracle's {expected:?}"
        ))
    }
}

/// The oracle answer of every timed request: a cold concrete solve of
/// the bound chain. On `dense` workloads (plain dense chains) the cost
/// must also equal the classic matrix chain optimum; a request whose
/// chain the oracle cannot solve, or whose optimum disagrees, yields
/// `Err`, which fails every reply to it.
pub fn serving_oracle(
    registry: &KernelRegistry,
    inputs: &Serving,
    dense: bool,
) -> Vec<Result<Answer, String>> {
    let optimizer = GmcOptimizer::new(registry, FlopCount).with_inference(InferenceMode::default());
    inputs
        .requests
        .iter()
        .map(|r| {
            let chain = inputs.structures[r.structure]
                .chain
                .bind(&r.bindings(&inputs.structures))
                .map_err(|e| format!("oracle cannot bind: {e}"))?;
            let answer = Answer::of(
                &optimizer
                    .solve(&chain)
                    .map_err(|e| format!("oracle cannot solve: {e}"))?,
            );
            if dense {
                let optimum = gmc::mcp::matrix_chain_order(&chain.sizes()).flops();
                if optimum.to_bits() != answer.cost_bits {
                    return Err(format!(
                        "GMC cost {} is not the matrix chain optimum {optimum}",
                        f64::from_bits(answer.cost_bits)
                    ));
                }
            }
            Ok(answer)
        })
        .collect()
}

/// Checks a round's replies, in sequence order, against the oracle.
/// Returns the number of failed replies and the first failure.
pub fn check_replies(
    replies: &[String],
    oracle: &[Result<Answer, String>],
) -> (u64, Option<String>) {
    let mut failed = 0;
    let mut first = None;
    for (i, (reply, expected)) in replies.iter().zip(oracle).enumerate() {
        let verdict = match expected {
            Ok(expected) => check_reply(reply, expected).map(drop),
            Err(e) => Err(e.clone()),
        };
        if let Err(e) = verdict {
            failed += 1;
            first.get_or_insert_with(|| format!("request {i}: {e}"));
        }
    }
    // A missing reply is a failed request too.
    let missing = oracle.len().saturating_sub(replies.len()) as u64;
    if missing > 0 {
        first.get_or_insert_with(|| format!("{missing} requests got no reply"));
    }
    (failed + missing, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = r#"{"structure":"X","outcome":"hit","cost":968000000,"flops":968000000,"parenthesization":"((A^-1 B) C^T)","kernels":["TRMM_RLT","POSV_LN"]}"#;

    fn expected() -> Answer {
        Answer {
            cost_bits: 968e6f64.to_bits(),
            flops_bits: 968e6f64.to_bits(),
            parenthesization: "((A^-1 B) C^T)".to_owned(),
            kernels: vec!["TRMM_RLT".to_owned(), "POSV_LN".to_owned()],
        }
    }

    #[test]
    fn accepts_the_expected_reply() {
        assert_eq!(check_reply(REPLY, &expected()).unwrap(), "hit");
    }

    #[test]
    fn altered_replies_fail() {
        for altered in [
            REPLY.replace("968000000,\"flops", "968000001,\"flops"),
            REPLY.replace("POSV_LN", "GESV_LN"),
            REPLY.replace("((A^-1 B) C^T)", "(A^-1 (B C^T))"),
            r#"{"structure":"X","error":"boom","code":"internal"}"#.to_owned(),
            "not json".to_owned(),
        ] {
            assert!(check_reply(&altered, &expected()).is_err(), "{altered}");
        }
        let oracle = vec![Ok(expected()), Ok(expected())];
        let replies = vec![REPLY.to_owned(), REPLY.replace("TRMM_RLT", "GEMM_NN")];
        assert_eq!(check_replies(&replies, &oracle).0, 1);
        assert_eq!(check_replies(&replies[..1], &oracle).0, 1);
    }
}
