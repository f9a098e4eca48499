use std::error::Error;
use std::fmt;

use bsc_mac::Precision;

/// Errors from the systolic-array simulation and mapping.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SystolicError {
    /// The feature matrix column count does not match the dot-product
    /// length of the configured mode.
    FeatureWidthMismatch {
        /// Precision mode of the run.
        precision: Precision,
        /// Dot-product length expected in that mode.
        expected: usize,
        /// Feature matrix column count supplied.
        got: usize,
    },
    /// The weight matrix has more rows than the array has PEs.
    TooManyWeightRows {
        /// PEs available.
        pes: usize,
        /// Weight rows supplied.
        got: usize,
    },
    /// The weight matrix column count does not match the feature width.
    WeightWidthMismatch {
        /// Feature matrix column count.
        features: usize,
        /// Weight matrix column count.
        weights: usize,
    },
    /// An operand error surfaced by the vector MAC model.
    Mac(bsc_mac::MacError),
    /// A convolution shape field was zero, or an output axis (`out_w`,
    /// `out_h`) was empty because the kernel does not fit the padded input.
    EmptyShape(&'static str),
    /// The measured dataflow counters of a run disagreed with the
    /// closed-form prediction — a bug in the cycle model or the formulas.
    TelemetryDivergence {
        /// Name of the diverging statistic.
        field: &'static str,
        /// Value the closed-form dataflow model predicts.
        analytic: f64,
        /// Value the cycle loop actually counted.
        counted: f64,
    },
}

impl fmt::Display for SystolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystolicError::FeatureWidthMismatch { precision, expected, got } => write!(
                f,
                "feature width {got} does not match the {precision} dot length {expected}"
            ),
            SystolicError::TooManyWeightRows { pes, got } => {
                write!(f, "weight matrix has {got} rows but the array has {pes} PEs")
            }
            SystolicError::WeightWidthMismatch { features, weights } => write!(
                f,
                "weight width {weights} does not match feature width {features}"
            ),
            SystolicError::Mac(e) => write!(f, "vector MAC error: {e}"),
            SystolicError::EmptyShape(field) => write!(f, "convolution shape `{field}` is zero"),
            SystolicError::TelemetryDivergence { field, analytic, counted } => write!(
                f,
                "dataflow telemetry divergence on `{field}`: analytic {analytic} vs counted {counted}"
            ),
        }
    }
}

impl Error for SystolicError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystolicError::Mac(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bsc_mac::MacError> for SystolicError {
    fn from(e: bsc_mac::MacError) -> Self {
        SystolicError::Mac(e)
    }
}
