//! Calibrated per-op cost profile: what one slice of `t` tokens attending
//! `pairs` causal pairs costs on this host, per transformer layer, plus the
//! loss-head and embedding edges.
//!
//! The profile is the planner's currency: [`crate::calibrate`] fits one
//! from timings of the real kernels, the JSON form pins it to a file so a
//! noisy host can commit a reference profile for deterministic tests, and
//! [`crate::cost::ProfiledCostModel`] prices whole schedules with it.
//!
//! All coefficients are nanoseconds (per call / per token / per pair).
//! The linear form `c0 + ct·t + cp·pairs` is exact for the kernels it
//! models: slice GEMM work is `O(t)` at fixed weight shapes, chunked
//! attention is `O(pairs)` with an `O(t)` softmax/merge edge, and the
//! constants absorb per-call dispatch overhead.

use std::fmt::Write as _;

/// The model shape a profile was calibrated for — priced costs are only
/// meaningful against the same weight shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileShape {
    pub heads: usize,
    pub kv_heads: usize,
    pub head_dim: usize,
    pub ffn: usize,
    pub vocab: usize,
}

impl ProfileShape {
    pub fn hidden(&self) -> usize {
        self.heads * self.head_dim
    }
}

/// Fitted cost coefficients (nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostProfile {
    pub shape: ProfileShape,
    /// One transformer layer, forward: `f0 + ft·tokens + fp·pairs`.
    pub f0: f64,
    pub ft: f64,
    pub fp: f64,
    /// One transformer layer, backward.
    pub b0: f64,
    pub bt: f64,
    pub bp: f64,
    /// Classic loss head (final norm + logits GEMM + cross-entropy),
    /// forward: `hf0 + hft·tokens`.
    pub hf0: f64,
    pub hft: f64,
    /// Loss head, backward.
    pub hb0: f64,
    pub hbt: f64,
    /// Embedding lookup (stage 0), forward per token.
    pub ef: f64,
    /// Embedding scatter-add (stage 0), backward per token.
    pub eb: f64,
    /// Measured comm/compute overlap of the executor's exchange runtime, in
    /// `[0, 1]`: `1 − Σ exchange-wait / Σ compute` of one overlapped step.
    /// Unlike the other coefficients this is a dimensionless fraction, not
    /// nanoseconds; it lives in the same `coeffs_ns` block for the
    /// simplicity of the committed-profile format. 0 = nothing hidden
    /// (also the default when an older profile omits the key).
    pub ov: f64,
}

impl CostProfile {
    /// Every coefficient finite and non-negative — what a sane fit must
    /// produce (negative slopes are clamped by the fitter, so a violation
    /// means a hand-edited profile).
    pub fn validate(&self) -> Result<(), String> {
        let named = self.named_coeffs();
        for (name, v) in named {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("profile coefficient {name} = {v} is invalid"));
            }
        }
        if self.ft <= 0.0 && self.fp <= 0.0 {
            return Err("profile has no forward cost slope at all".into());
        }
        if self.ov > 1.0 {
            return Err(format!(
                "profile overlap fraction ov = {} exceeds 1.0",
                self.ov
            ));
        }
        Ok(())
    }

    fn named_coeffs(&self) -> [(&'static str, f64); 13] {
        [
            ("f0", self.f0),
            ("ft", self.ft),
            ("fp", self.fp),
            ("b0", self.b0),
            ("bt", self.bt),
            ("bp", self.bp),
            ("hf0", self.hf0),
            ("hft", self.hft),
            ("hb0", self.hb0),
            ("hbt", self.hbt),
            ("ef", self.ef),
            ("eb", self.eb),
            ("ov", self.ov),
        ]
    }

    /// Serialize to the committed-profile JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let s = &self.shape;
        let _ = writeln!(
            out,
            "  \"shape\": {{\"heads\": {}, \"kv_heads\": {}, \"head_dim\": {}, \
             \"ffn\": {}, \"vocab\": {}}},",
            s.heads, s.kv_heads, s.head_dim, s.ffn, s.vocab
        );
        out.push_str("  \"coeffs_ns\": {\n");
        let named = self.named_coeffs();
        for (i, (name, v)) in named.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{name}\": {v:.4}{}",
                if i + 1 < named.len() { "," } else { "" }
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse the JSON format [`CostProfile::to_json`] writes. The scanner
    /// is deliberately minimal (the same style as the bench snapshot
    /// reader): it looks for `"key": number` pairs, so field order and
    /// whitespace are free.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            let pat = format!("\"{key}\":");
            let idx = text
                .find(&pat)
                .ok_or_else(|| format!("profile JSON missing \"{key}\""))?;
            let rest = text[idx + pat.len()..].trim_start();
            let lit: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            lit.parse::<f64>()
                .map_err(|e| format!("profile JSON field {key}: {e}"))
        };
        let shape = ProfileShape {
            heads: num("heads")? as usize,
            kv_heads: num("kv_heads")? as usize,
            head_dim: num("head_dim")? as usize,
            ffn: num("ffn")? as usize,
            vocab: num("vocab")? as usize,
        };
        let p = CostProfile {
            shape,
            f0: num("f0")?,
            ft: num("ft")?,
            fp: num("fp")?,
            b0: num("b0")?,
            bt: num("bt")?,
            bp: num("bp")?,
            hf0: num("hf0")?,
            hft: num("hft")?,
            hb0: num("hb0")?,
            hbt: num("hbt")?,
            ef: num("ef")?,
            eb: num("eb")?,
            // Older committed profiles predate the overlap coefficient:
            // absent means no overlap.
            ov: num("ov").unwrap_or(0.0),
        };
        p.validate()?;
        Ok(p)
    }
}

/// One calibration observation: a timed kernel call.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub tokens: f64,
    pub pairs: f64,
    pub ns: f64,
}

/// Least-squares fit of `ns ≈ c0 + ct·tokens + cp·pairs` over samples, via
/// the 3×3 normal equations. Negative slopes (possible on a noisy host
/// when a regressor barely varies) are clamped to zero and the remaining
/// columns refitted, so priced costs stay monotone in workload.
pub fn fit_linear3(samples: &[Sample]) -> (f64, f64, f64) {
    assert!(samples.len() >= 3, "need at least 3 samples for a 3-term fit");
    let solve = |use_t: bool, use_p: bool| -> (f64, f64, f64) {
        // Build X^T X and X^T y for the active columns [1, t?, p?].
        let row_of = |s: &Sample| {
            let mut r = vec![1.0];
            if use_t {
                r.push(s.tokens);
            }
            if use_p {
                r.push(s.pairs);
            }
            r
        };
        let k = 1 + usize::from(use_t) + usize::from(use_p);
        let mut ata = vec![vec![0.0f64; k]; k];
        let mut aty = vec![0.0f64; k];
        for s in samples {
            let row = row_of(s);
            for i in 0..k {
                for j in 0..k {
                    ata[i][j] += row[i] * row[j];
                }
                aty[i] += row[i] * s.ns;
            }
        }
        let x = solve_gauss(&mut ata, &mut aty);
        let mut it = x.into_iter();
        let c0 = it.next().unwrap_or(0.0);
        let ct = if use_t { it.next().unwrap_or(0.0) } else { 0.0 };
        let cp = if use_p { it.next().unwrap_or(0.0) } else { 0.0 };
        (c0, ct, cp)
    };
    let (mut c0, mut ct, mut cp) = solve(true, true);
    if ct < 0.0 || cp < 0.0 {
        // Drop the offending column(s) and refit.
        let (r0, rt, rp) = solve(ct >= 0.0, cp >= 0.0);
        c0 = r0;
        ct = rt;
        cp = rp;
    }
    (c0.max(0.0), ct.max(0.0), cp.max(0.0))
}

/// Gaussian elimination with partial pivoting (k ≤ 3).
#[allow(clippy::needless_range_loop)] // the elimination indexes two rows of `a` at once
fn solve_gauss(a: &mut [Vec<f64>], y: &mut [f64]) -> Vec<f64> {
    let k = y.len();
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        y.swap(col, pivot);
        let d = a[col][col];
        if d.abs() < 1e-30 {
            continue; // degenerate column: leaves coefficient 0
        }
        for row in 0..k {
            if row == col {
                continue;
            }
            let f = a[row][col] / d;
            for c in col..k {
                a[row][c] -= f * a[col][c];
            }
            y[row] -= f * y[col];
        }
    }
    (0..k)
        .map(|i| {
            if a[i][i].abs() < 1e-30 {
                0.0
            } else {
                y[i] / a[i][i]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_profile() -> CostProfile {
        CostProfile {
            shape: ProfileShape { heads: 4, kv_heads: 2, head_dim: 8, ffn: 64, vocab: 96 },
            f0: 1000.0,
            ft: 50.0,
            fp: 2.0,
            b0: 2000.0,
            bt: 110.0,
            bp: 4.5,
            hf0: 500.0,
            hft: 80.0,
            hb0: 600.0,
            hbt: 95.0,
            ef: 3.0,
            eb: 5.0,
            ov: 0.25,
        }
    }

    #[test]
    fn json_roundtrips() {
        let p = toy_profile();
        let q = CostProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(p.shape, q.shape);
        assert!((p.ft - q.ft).abs() < 1e-3);
        assert!((p.bp - q.bp).abs() < 1e-3);
        assert!((p.hbt - q.hbt).abs() < 1e-3);
        // Files written by the old per-regime `calibrate_profile` still
        // carry a `"regime"` key; it is ignored.
        let old = p.to_json().replacen("{\n", "{\n  \"regime\": \"scalar\",\n", 1);
        assert_eq!(CostProfile::from_json(&old).unwrap(), q);
    }

    #[test]
    fn from_json_rejects_missing_and_negative() {
        assert!(CostProfile::from_json("{}").is_err());
        let mut p = toy_profile();
        p.bt = -1.0;
        assert!(CostProfile::from_json(&p.to_json()).is_err());
    }

    #[test]
    fn overlap_coefficient_roundtrips_and_defaults() {
        let p = toy_profile();
        let q = CostProfile::from_json(&p.to_json()).unwrap();
        assert!((q.ov - 0.25).abs() < 1e-3);
        // A committed profile that predates the coefficient parses as no
        // overlap (the scanner ignores the dangling comma).
        let legacy: String = p
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"ov\""))
            .collect::<Vec<_>>()
            .join("\n");
        let q = CostProfile::from_json(&legacy).unwrap();
        assert_eq!(q.ov, 0.0);
        // Overlap is a fraction: above 1 is a hand-editing error.
        let mut bad = toy_profile();
        bad.ov = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fit_recovers_exact_linear_data() {
        let truth = (700.0, 12.0, 0.5);
        let samples: Vec<Sample> = [(8.0, 36.0), (16.0, 136.0), (32.0, 528.0), (16.0, 400.0), (32.0, 1552.0), (8.0, 100.0)]
            .iter()
            .map(|&(t, p)| Sample {
                tokens: t,
                pairs: p,
                ns: truth.0 + truth.1 * t + truth.2 * p,
            })
            .collect();
        let (c0, ct, cp) = fit_linear3(&samples);
        assert!((c0 - truth.0).abs() < 1e-6, "c0={c0}");
        assert!((ct - truth.1).abs() < 1e-8, "ct={ct}");
        assert!((cp - truth.2).abs() < 1e-8, "cp={cp}");
    }

    #[test]
    fn fit_clamps_negative_slopes() {
        // Data with a spurious negative pair slope: tokens dominate.
        let samples: Vec<Sample> = [(8.0, 100.0, 1000.0), (16.0, 90.0, 1960.0), (32.0, 80.0, 3900.0), (64.0, 70.0, 7810.0)]
            .iter()
            .map(|&(t, p, ns)| Sample { tokens: t, pairs: p, ns })
            .collect();
        let (_, ct, cp) = fit_linear3(&samples);
        assert!(ct > 0.0);
        assert!(cp >= 0.0);
    }
}
