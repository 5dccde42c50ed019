//! Task execution, shared verbatim by the worker process and the
//! coordinator's in-process fallback.
//!
//! This is the whole byte-identical argument's mechanical half: a task
//! produces *exact* DP values (same kernels as the sequential solver,
//! which are bit-identical across backends) and the traceback uses the
//! same Diag ≻ Up ≻ Left tie-break as [`flsa_dp::traceback::trace_from`],
//! so it cannot matter whether a block was computed by worker 3, by a
//! respawned worker after a SIGKILL, or by the coordinator itself after
//! every retry was exhausted — the bytes that come back are the same.

use flsa_dp::traceback::trace_from;
use flsa_dp::{Kernel, Metrics, PathBuilder};
use flsa_scoring::tables;

use crate::protocol::{TaskKind, TaskOutput, TaskSpec};

/// Validates and executes one task. Errors are strings because on the
/// worker side they are diagnostics on stderr (the coordinator sees the
/// failure through its own deadline/heartbeat machinery), and on the
/// fallback side they indicate a coordinator bug worth surfacing
/// verbatim.
pub fn execute(kernel: &Kernel, spec: &TaskSpec, metrics: &Metrics) -> Result<TaskOutput, String> {
    let scheme = tables::scheme_by_name(&spec.matrix, spec.gap)
        .ok_or_else(|| format!("unknown matrix {:?}", spec.matrix))?;
    let rows = spec.a.len();
    let cols = spec.b.len();
    if rows == 0 || cols == 0 {
        return Err(format!("degenerate {rows}x{cols} block"));
    }
    if spec.top.len() != cols + 1 || spec.left.len() != rows + 1 {
        return Err(format!(
            "boundary shape mismatch: top {} (want {}), left {} (want {})",
            spec.top.len(),
            cols + 1,
            spec.left.len(),
            rows + 1
        ));
    }
    if spec.top[0] != spec.left[0] {
        return Err(format!(
            "inconsistent corner: top[0]={} left[0]={}",
            spec.top[0], spec.left[0]
        ));
    }
    let n_symbols = scheme.alphabet().len();
    if let Some(&c) = spec
        .a
        .iter()
        .chain(spec.b.iter())
        .find(|&&c| c as usize >= n_symbols)
    {
        return Err(format!(
            "sequence code {c} outside the {n_symbols}-symbol alphabet"
        ));
    }

    match spec.kind {
        TaskKind::Fill {
            want_bottom,
            want_right,
        } => {
            let mut bottom = vec![0i32; cols + 1];
            let mut right = vec![0i32; rows + 1];
            kernel.fill_last_row_col(
                &spec.a,
                &spec.b,
                &spec.top,
                &spec.left,
                &scheme,
                &mut bottom,
                Some(&mut right),
                metrics,
            );
            if !want_bottom {
                bottom.clear();
            }
            if !want_right {
                right.clear();
            }
            Ok(TaskOutput::Fill { bottom, right })
        }
        TaskKind::Trace { head } => {
            let (hi, hj) = (head.0 as usize, head.1 as usize);
            if head.0 as usize as u64 != head.0
                || head.1 as usize as u64 != head.1
                || hi == 0
                || hj == 0
                || hi > rows
                || hj > cols
            {
                return Err(format!(
                    "trace head ({},{}) outside interior of {rows}x{cols} block",
                    head.0, head.1
                ));
            }
            let dpm = kernel.fill_full_reusing(
                &spec.a,
                &spec.b,
                &spec.top,
                &spec.left,
                &scheme,
                Vec::new(),
                metrics,
            );
            metrics.add_base_case_cells(rows as u64 * cols as u64);
            let mut builder = PathBuilder::new();
            let exit = trace_from(
                &dpm,
                &spec.a,
                &spec.b,
                &scheme,
                (hi, hj),
                &mut builder,
                metrics,
            );
            let rev_moves = builder.rev_moves().iter().map(|m| m.code()).collect();
            Ok(TaskOutput::Trace {
                rev_moves,
                exit: (exit.0 as u64, exit.1 as u64),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TaskSpec;

    fn ramp(n: usize, gap: i32) -> Vec<i32> {
        (0..=n as i64).map(|i| (i * gap as i64) as i32).collect()
    }

    fn fill_spec() -> TaskSpec {
        TaskSpec {
            task_id: 1,
            matrix: "dna".to_string(),
            gap: -4,
            a: vec![0, 1, 2, 3, 0],
            b: vec![0, 1, 2, 3],
            top: ramp(4, -4),
            left: ramp(5, -4),
            kind: TaskKind::Fill {
                want_bottom: true,
                want_right: true,
            },
        }
    }

    #[test]
    fn fill_matches_full_matrix_edges() {
        let kernel = Kernel::auto();
        let metrics = Metrics::new();
        let spec = fill_spec();
        let out = execute(&kernel, &spec, &metrics).unwrap();
        let TaskOutput::Fill { bottom, right } = out else {
            panic!("wrong output kind");
        };
        // Cross-check against the full-matrix fill.
        let scheme = tables::scheme_by_name("dna", -4).unwrap();
        let dpm = kernel.fill_full_reusing(
            &spec.a,
            &spec.b,
            &spec.top,
            &spec.left,
            &scheme,
            Vec::new(),
            &metrics,
        );
        let rows = spec.a.len();
        let cols = spec.b.len();
        for (j, v) in bottom.iter().enumerate().take(cols + 1) {
            assert_eq!(*v, dpm.get(rows, j), "bottom[{j}]");
        }
        for (i, v) in right.iter().enumerate().take(rows + 1) {
            assert_eq!(*v, dpm.get(i, cols), "right[{i}]");
        }
    }

    #[test]
    fn shape_and_code_validation_rejects() {
        let kernel = Kernel::auto();
        let metrics = Metrics::new();
        let mut bad = fill_spec();
        bad.top.pop();
        assert!(execute(&kernel, &bad, &metrics).is_err());

        let mut bad = fill_spec();
        bad.a[0] = 200; // outside the DNA alphabet
        assert!(execute(&kernel, &bad, &metrics).is_err());

        let mut bad = fill_spec();
        bad.matrix = "nonesuch".to_string();
        assert!(execute(&kernel, &bad, &metrics).is_err());

        let mut bad = fill_spec();
        bad.kind = TaskKind::Trace { head: (0, 2) };
        assert!(execute(&kernel, &bad, &metrics).is_err());
        let mut bad = fill_spec();
        bad.kind = TaskKind::Trace { head: (99, 2) };
        assert!(execute(&kernel, &bad, &metrics).is_err());
    }
}
