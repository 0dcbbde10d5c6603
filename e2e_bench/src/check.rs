//! The benchmark's result checker.
//!
//! `quokka::same_result` rounds floats to 8 significant digits before it
//! compares, so two answers a few ulps apart that straddle a rounding
//! boundary (Q15's `927227.4549999996` against `927227.455`) compare
//! unequal. This checker instead compares rows in order, cell by cell:
//! schema and row count must be identical, non-float values must match
//! exactly, and floats must agree to a relative tolerance.

use quokka::{Batch, ScalarValue};

/// Relative tolerance on float cells: `|a-b| <= REL_TOL * max(1, |a|, |b|)`.
pub const REL_TOL: f64 = 1e-9;

/// Whether two floats agree within [`REL_TOL`].
pub fn floats_match(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= REL_TOL * 1f64.max(a.abs()).max(b.abs())
}

/// Check `actual` against `expected`; on mismatch, say where.
pub fn compare(expected: &Batch, actual: &Batch) -> Result<(), String> {
    if expected.schema() != actual.schema() {
        return Err(format!(
            "schema differs: expected {:?}, got {:?}",
            expected.schema(),
            actual.schema()
        ));
    }
    if expected.num_rows() != actual.num_rows() {
        return Err(format!(
            "row count differs: expected {}, got {}",
            expected.num_rows(),
            actual.num_rows()
        ));
    }
    for row in 0..expected.num_rows() {
        for col in 0..expected.num_columns() {
            let (e, a) = (expected.value(row, col), actual.value(row, col));
            let same = match (&e, &a) {
                (ScalarValue::Float64(x), ScalarValue::Float64(y)) => floats_match(*x, *y),
                _ => e == a,
            };
            if !same {
                return Err(format!("row {row}, column {col}: expected {e}, got {a}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka::{Column, DataType, Schema};

    fn revenue(values: &[f64]) -> Batch {
        let schema = Schema::from_pairs(&[
            ("s_suppkey", DataType::Int64),
            ("total_revenue", DataType::Float64),
        ]);
        Batch::try_new(
            schema,
            vec![
                Column::Int64((1..=values.len() as i64).collect()),
                Column::Float64(values.to_vec()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn q15_rounding_boundary_pair_matches() {
        // Reference and distributed answers of Q15 at SF 0.01 on 2 workers.
        assert!(compare(&revenue(&[927227.4549999996]), &revenue(&[927227.455])).is_ok());
    }

    #[test]
    fn a_cent_apart_is_a_mismatch() {
        let err = compare(&revenue(&[927227.45]), &revenue(&[927227.46])).unwrap_err();
        assert!(err.contains("row 0, column 1"), "{err}");
    }

    #[test]
    fn small_values_use_an_absolute_floor() {
        assert!(floats_match(0.0, 1e-10));
        assert!(!floats_match(0.0, 1e-8));
    }

    #[test]
    fn non_float_cells_must_match_exactly() {
        let other = Batch::try_new(
            revenue(&[]).schema().clone(),
            vec![Column::Int64(vec![1, 3]), Column::Float64(vec![1.0, 2.0])],
        )
        .unwrap();
        assert!(compare(&revenue(&[1.0, 2.0]), &other).is_err());
    }

    #[test]
    fn rows_compare_in_order() {
        let swapped = Batch::try_new(
            revenue(&[]).schema().clone(),
            vec![Column::Int64(vec![2, 1]), Column::Float64(vec![2.0, 1.0])],
        )
        .unwrap();
        assert!(compare(&revenue(&[1.0, 2.0]), &swapped).is_err());
    }

    #[test]
    fn row_count_and_schema_must_match() {
        assert!(compare(&revenue(&[1.0]), &revenue(&[1.0, 2.0]))
            .unwrap_err()
            .contains("row count"));
        let renamed = Batch::try_new(
            Schema::from_pairs(&[("key", DataType::Int64), ("total_revenue", DataType::Float64)]),
            vec![Column::Int64(vec![1]), Column::Float64(vec![1.0])],
        )
        .unwrap();
        assert!(compare(&revenue(&[1.0]), &renamed).unwrap_err().contains("schema"));
    }
}
