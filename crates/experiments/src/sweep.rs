//! The one sweep driver behind the seeded fault studies.
//!
//! `faults`, `verify-crash`, `verify-net` and `verify-scrub` all run a
//! grid: each row key (a cache model, a crash point, a protection mode…)
//! is replayed against every input (usually the eight traces), and the
//! per-input results fold into one row per key. [`sweep`] runs the whole
//! grid through a single [`nvfs_par::par_map`], key-major, and merges in
//! submission order, so rows are byte-identical at any `--jobs` count.

/// Runs `run` on every `keys` × `inputs` pair and folds each key's
/// results, in input order, into one row with `merge(row, next)`.
///
/// Rows come back in key order. A key with no inputs yields no row. If
/// any run fails, the first error in run order (key-major, then input
/// order) is returned; every task still runs, as `par_map` has no early
/// exit.
///
/// # Examples
///
/// ```
/// use nvfs_experiments::sweep::sweep;
///
/// let rows = sweep(
///     &[10, 20],
///     &[1, 2, 3],
///     |k, i| Ok::<_, ()>(k * i),
///     |row, next| *row += next,
/// );
/// assert_eq!(rows, Ok(vec![60, 120]));
/// ```
pub fn sweep<K, I, R, E>(
    keys: &[K],
    inputs: &[I],
    run: impl Fn(&K, &I) -> Result<R, E> + Sync,
    merge: impl Fn(&mut R, R),
) -> Result<Vec<R>, E>
where
    K: Sync,
    I: Sync,
    R: Send,
    E: Send,
{
    let tasks: Vec<(&K, &I)> = keys
        .iter()
        .flat_map(|k| inputs.iter().map(move |i| (k, i)))
        .collect();
    let mut runs = nvfs_par::par_map(tasks, nvfs_par::jobs(), |(k, i)| run(k, i)).into_iter();
    let mut rows = Vec::with_capacity(keys.len());
    for _ in keys {
        let mut row: Option<R> = None;
        for result in runs.by_ref().take(inputs.len()) {
            let result = result?;
            match row.as_mut() {
                Some(row) => merge(row, result),
                None => row = Some(result),
            }
        }
        rows.extend(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concat(keys: &[&str], inputs: &[u32]) -> Result<Vec<String>, String> {
        sweep(
            keys,
            inputs,
            |k, i| Ok(format!("{k}{i}")),
            |row, next| row.push_str(&next),
        )
    }

    #[test]
    fn rows_come_back_in_key_order() {
        let rows = sweep(
            &[3u64, 1, 2],
            &[(); 4],
            |k, _| Ok::<_, ()>(*k),
            |row, next| *row += next,
        );
        assert_eq!(rows, Ok(vec![12, 4, 8]));
    }

    #[test]
    fn inputs_merge_in_input_order() {
        // String concatenation does not commute, so any reordering of a
        // key's results would show in its row.
        let rows = concat(&["a", "b"], &[1, 2, 3]).unwrap();
        assert_eq!(rows, ["a1a2a3", "b1b2b3"]);
    }

    #[test]
    fn the_first_error_in_run_order_wins() {
        let out = sweep(
            &[0u32, 1, 2],
            &[0u32, 1, 2],
            |k, i| {
                if *k >= 1 && *i >= 1 {
                    Err(format!("{k}/{i}"))
                } else {
                    Ok(())
                }
            },
            |_, _| {},
        );
        assert_eq!(out, Err("1/1".to_string()));
    }

    #[test]
    fn zero_inputs_yield_no_rows() {
        assert_eq!(concat(&["a", "b"], &[]), Ok(Vec::new()));
        assert_eq!(concat(&[], &[1, 2]), Ok(Vec::new()));
    }
}
