//! Answer check: the staged engine's rows against the iterator engine's
//! rows for the same plan, compared as multisets with a float tolerance
//! (the two engines add floats in different orders).

use qpipe_common::{Tuple, Value};

/// Relative tolerance for float columns.
const REL_TOL: f64 = 1e-6;

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Both engines evaluate an undefined expression to NaN the same way
        // (e.g. date arithmetic); NaN matches NaN here.
        (Value::Float(x), Value::Float(y)) => {
            x == y
                || (x.is_nan() && y.is_nan())
                || (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(1.0)
        }
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
            values_match(&Value::Float(*i as f64), &Value::Float(*f))
        }
        _ => a == b,
    }
}

fn rows_match(a: &Tuple, b: &Tuple) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_match(x, y))
}

/// True when `got` and `want` hold the same rows, in any order.
pub fn same_multiset(got: &[Tuple], want: &[Tuple]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut got = got.to_vec();
    let mut want = want.to_vec();
    got.sort();
    want.sort();
    if got.iter().zip(&want).all(|(g, w)| rows_match(g, w)) {
        return true;
    }
    // Sorting can pair rows differently when a float sort key differs in
    // its last bits; fall back to matching each row against any unused one.
    let mut used = vec![false; want.len()];
    got.iter().all(|g| {
        let hit = (0..want.len()).find(|&i| !used[i] && rows_match(g, &want[i]));
        hit.map(|i| used[i] = true).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_does_not_matter_and_floats_tolerate_rounding() {
        let a = vec![
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::Float(5.0)],
        ];
        let b =
            vec![vec![Value::Int(2), Value::Float(5.0)], vec![Value::Int(1), Value::Float(0.3)]];
        assert!(same_multiset(&a, &b));
        let nan = vec![vec![Value::Float(f64::NAN), Value::Int(7)]];
        assert!(same_multiset(&nan, &nan.clone()));
    }

    #[test]
    fn a_different_value_or_count_is_a_mismatch() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(1)]];
        let b = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        assert!(!same_multiset(&a, &b));
        assert!(!same_multiset(&a, &a[..1]));
        let f = vec![vec![Value::Float(1.0)]];
        let g = vec![vec![Value::Float(1.001)]];
        assert!(!same_multiset(&f, &g));
    }
}
