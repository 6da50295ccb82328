//! Model persistence: fitted metamodels serialize to and load from
//! `reds-json` documents with **bit-identical** predictions after the
//! round trip.
//!
//! Every finite `f64` survives exactly (the `reds-json` writer emits
//! shortest-round-trip decimals); the non-finite values a fitted model
//! can legitimately contain — split thresholds at `±∞` when the
//! training data held infinite coordinates, SVM support vectors copied
//! from such data — are encoded as the strings `"inf"`/`"-inf"`/`"nan"`
//! (the same convention as `HyperBox::to_json`).
//!
//! Loading validates structural invariants before constructing a model,
//! because serving loads model files across a trust boundary: node
//! child indices must strictly increase (a crafted cycle would
//! otherwise spin `predict` forever), feature ids must be in range, and
//! buffer shapes must agree. A malformed document yields a
//! [`PersistError`], never a panic or a non-terminating model.

use std::fmt;

use reds_json::Json;

use crate::{Gbdt, Metamodel, RandomForest, RegressionTree, Svm};

/// A model document that cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Human-readable description of the first problem found.
    pub message: String,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model document: {}", self.message)
    }
}

impl std::error::Error for PersistError {}

/// Shorthand constructor used by the per-model decoders.
pub(crate) fn bad(message: impl Into<String>) -> PersistError {
    PersistError {
        message: message.into(),
    }
}

/// Encodes an `f64` losslessly: finite values as JSON numbers (bitwise
/// round-trip), non-finite ones as marker strings.
pub fn f64_to_json(v: f64) -> Json {
    match f64_marker(v) {
        None => Json::Num(v),
        Some(marker) => Json::str(marker),
    }
}

/// The marker string [`f64_to_json`] writes for a non-finite `v`
/// (`"inf"`, `"-inf"` or `"nan"`); `None` for a finite one.
pub fn f64_marker(v: f64) -> Option<&'static str> {
    if v.is_finite() {
        None
    } else if v.is_nan() {
        Some("nan")
    } else if v > 0.0 {
        Some("inf")
    } else {
        Some("-inf")
    }
}

/// Inverse of [`f64_marker`].
pub fn f64_from_marker(s: &str) -> Option<f64> {
    match s {
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        "nan" => Some(f64::NAN),
        _ => None,
    }
}

/// Inverse of [`f64_to_json`].
pub fn f64_from_json(doc: &Json) -> Result<f64, PersistError> {
    match doc {
        Json::Num(v) => Ok(*v),
        Json::Str(s) => {
            f64_from_marker(s).ok_or_else(|| bad(format!("expected a number, got string '{s}'")))
        }
        other => Err(bad(format!("expected a number, got {other}"))),
    }
}

/// Decodes a non-negative integer stored as a JSON number, rejecting
/// negatives, fractions, and anything above `u32::MAX` — so the result
/// fits `usize` losslessly on every supported target (including 32-bit
/// ones, where a bare `as usize` would silently truncate). The single
/// integer-decode helper for every model-document loader (this crate's
/// persistence and `reds-serve` artifacts alike).
pub fn usize_from_json(doc: &Json, what: &str) -> Result<usize, PersistError> {
    let v = doc
        .as_f64()
        .ok_or_else(|| bad(format!("{what} must be a number")))?;
    if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
        return Err(bad(format!("{what} must be a small non-negative integer")));
    }
    Ok(v as usize)
}

/// Looks up a required object field.
pub(crate) fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, PersistError> {
    doc.get(key)
        .ok_or_else(|| bad(format!("missing field '{key}'")))
}

/// A fitted metamodel of any family, as read back from a model
/// document — the serving layer's unit of deployment.
///
/// Serializes as `{"family": "f"|"x"|"s", "model": {…}}`; predictions
/// delegate to the wrapped model, so `predict_batch` through a
/// `SavedModel` is bit-identical to the original fitted model.
pub enum SavedModel {
    /// Random forest ("f").
    Forest(RandomForest),
    /// Gradient-boosted trees ("x").
    Gbdt(Gbdt),
    /// RBF-kernel SVM ("s").
    Svm(Svm),
}

impl SavedModel {
    /// Family tag: "f", "x", or "s" (the paper's method-name letters).
    pub fn family(&self) -> &'static str {
        match self {
            Self::Forest(_) => "f",
            Self::Gbdt(_) => "x",
            Self::Svm(_) => "s",
        }
    }

    /// Number of input columns the model was fitted on.
    pub fn m(&self) -> usize {
        match self {
            Self::Forest(f) => f.m(),
            Self::Gbdt(g) => g.m(),
            Self::Svm(s) => s.m(),
        }
    }

    /// Serializes the model with its family tag.
    pub fn to_json(&self) -> Json {
        let model = match self {
            Self::Forest(f) => f.to_json(),
            Self::Gbdt(g) => g.to_json(),
            Self::Svm(s) => s.to_json(),
        };
        Json::obj([("family", Json::str(self.family())), ("model", model)])
    }

    /// Decodes and validates a model produced by [`SavedModel::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, PersistError> {
        let family = field(doc, "family")?
            .as_str()
            .ok_or_else(|| bad("'family' must be a string"))?;
        let model = field(doc, "model")?;
        match family {
            "f" => Ok(Self::Forest(RandomForest::from_json(model)?)),
            "x" => Ok(Self::Gbdt(Gbdt::from_json(model)?)),
            "s" => Ok(Self::Svm(Svm::from_json(model)?)),
            other => Err(bad(format!(
                "unknown model family '{other}' (expected f, x, or s)"
            ))),
        }
    }
}

impl Metamodel for SavedModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Self::Forest(f) => f.predict(x),
            Self::Gbdt(g) => g.predict(x),
            Self::Svm(s) => s.predict(x),
        }
    }

    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        match self {
            Self::Forest(f) => f.predict_batch(points, m),
            Self::Gbdt(g) => g.predict_batch(points, m),
            Self::Svm(s) => s.predict_batch(points, m),
        }
    }
}

/// Decodes a `RegressionTree` document (shared by the forest decoder).
impl RegressionTree {
    /// Serializes the node arena: leaves as `[value]`, splits as
    /// `[feature, threshold, right]` (the left child is implicit at the
    /// next index, exactly as in memory).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("m", Json::num(self.m() as f64)),
            ("nodes", self.nodes_to_json()),
        ])
    }

    /// Reconstructs a tree, validating that every split's children lie
    /// strictly forward in the arena (so traversal terminates) and every
    /// feature id is in range.
    pub fn from_json(doc: &Json) -> Result<Self, PersistError> {
        let m = usize_from_json(field(doc, "m")?, "'m'")?;
        if m == 0 {
            return Err(bad("'m' must be positive"));
        }
        Self::nodes_from_json(field(doc, "nodes")?, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GbdtParams, RandomForestParams, SvmParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reds_data::Dataset;

    fn band_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_fn((0..n * 3).map(|_| rng.gen::<f64>()).collect(), 3, |x| {
            if x[0] > 0.4 && x[2] < 0.7 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    fn query(n: usize, m: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * m).map(|_| rng.gen::<f64>() * 1.2 - 0.1).collect()
    }

    fn round_trip(model: &SavedModel) -> SavedModel {
        let text = model.to_json().to_string_compact();
        let doc = reds_json::from_str(&text).expect("model document parses");
        SavedModel::from_json(&doc).expect("model document decodes")
    }

    fn assert_bit_identical(a: &SavedModel, b: &SavedModel, m: usize) {
        let q = query(257, m, 99);
        let pa = a.predict_batch(&q, m);
        let pb = b.predict_batch(&q, m);
        for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row {i}: {x} vs {y}");
        }
    }

    #[test]
    fn forest_round_trips_bit_identically() {
        let data = band_data(200, 1);
        let params = RandomForestParams {
            n_trees: 25,
            ..Default::default()
        };
        let fitted = RandomForest::fit(&data, &params, &mut StdRng::seed_from_u64(2));
        let saved = SavedModel::Forest(fitted);
        let loaded = round_trip(&saved);
        assert_eq!(loaded.family(), "f");
        assert_eq!(loaded.m(), 3);
        assert_bit_identical(&saved, &loaded, 3);
    }

    #[test]
    fn gbdt_round_trips_bit_identically() {
        let data = band_data(180, 3);
        let params = GbdtParams {
            n_rounds: 30,
            ..Default::default()
        };
        let fitted = Gbdt::fit(&data, &params, &mut StdRng::seed_from_u64(4));
        let saved = SavedModel::Gbdt(fitted);
        let loaded = round_trip(&saved);
        assert_eq!(loaded.family(), "x");
        assert_bit_identical(&saved, &loaded, 3);
    }

    #[test]
    fn svm_round_trips_bit_identically() {
        let data = band_data(120, 5);
        let fitted = Svm::fit(&data, &SvmParams::default(), &mut StdRng::seed_from_u64(6));
        let saved = SavedModel::Svm(fitted);
        let loaded = round_trip(&saved);
        assert_eq!(loaded.family(), "s");
        assert_bit_identical(&saved, &loaded, 3);
    }

    #[test]
    fn infinite_coordinates_survive_the_round_trip() {
        // Infinite training coordinates produce ±∞ split thresholds and
        // support vectors; the string encoding must carry them exactly.
        let points = vec![
            f64::NEG_INFINITY,
            0.0,
            f64::INFINITY,
            1.0,
            0.5,
            2.0,
            -1.0,
            3.0,
        ];
        let labels = vec![0.0, 1.0, 1.0, 0.0];
        let data = Dataset::new(points, labels, 2).unwrap();
        let params = RandomForestParams {
            n_trees: 8,
            ..Default::default()
        };
        let fitted = RandomForest::fit(&data, &params, &mut StdRng::seed_from_u64(7));
        let saved = SavedModel::Forest(fitted);
        let loaded = round_trip(&saved);
        for x in [
            [f64::NEG_INFINITY, 0.0],
            [f64::INFINITY, 1.0],
            [0.5, 2.0],
            [-1.0, 3.0],
        ] {
            assert_eq!(saved.predict(&x).to_bits(), loaded.predict(&x).to_bits());
        }
    }

    #[test]
    fn malformed_documents_are_rejected_without_panicking() {
        let cases = [
            // Unknown family.
            r#"{"family":"q","model":{}}"#,
            // Forest with no trees.
            r#"{"family":"f","model":{"m":2,"trees":[]}}"#,
            // Tree whose split points at itself — would loop forever.
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[0,0.5,0],[0.0],[1.0]]}]}}"#,
            // Tree whose split points backwards.
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[0,0.5,2],[1,0.3,1],[0.0]]}]}}"#,
            // Right child out of bounds.
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[0,0.5,9],[0.0],[1.0]]}]}}"#,
            // Split with a missing left child (split is the last node).
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[0,0.5,0]]}]}}"#,
            // Feature id out of range.
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[7,0.5,2],[0.0],[1.0]]}]}}"#,
            // Tree m disagrees with forest m.
            r#"{"family":"f","model":{"m":2,"trees":[{"m":3,"nodes":[[0.5]]}]}}"#,
            // GBDT split child cycle.
            r#"{"family":"x","model":{"m":1,"base_score":0.0,"eta":0.1,"trees":[[[0,0.5,0,0]]]}}"#,
            // GBDT children out of bounds.
            r#"{"family":"x","model":{"m":1,"base_score":0.0,"eta":0.1,"trees":[[[0,0.5,1,9],[0.1]]]}}"#,
            // SVM coef/points shape mismatch.
            r#"{"family":"s","model":{"m":2,"gamma":0.5,"bias":0.1,"coef":[1.0],"points":[0.1]}}"#,
            // Negative / fractional indices.
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[-1,0.5,2],[0.0],[1.0]]}]}}"#,
            r#"{"family":"f","model":{"m":2,"trees":[{"m":2,"nodes":[[0.5,0.5,2],[0.0],[1.0]]}]}}"#,
        ];
        for text in cases {
            let doc = reds_json::from_str(text).expect("test documents are valid JSON");
            assert!(
                SavedModel::from_json(&doc).is_err(),
                "accepted malformed document: {text}"
            );
        }
    }

    #[test]
    fn valid_hand_written_tree_predicts() {
        let text = r#"{"family":"f","model":{"m":1,"trees":[
            {"m":1,"nodes":[[0,0.5,2],[0.0],[1.0]]}
        ]}}"#;
        let doc = reds_json::from_str(text).unwrap();
        let model = SavedModel::from_json(&doc).expect("valid document");
        assert_eq!(model.predict(&[0.2]), 0.0);
        assert_eq!(model.predict(&[0.8]), 1.0);
    }
}
