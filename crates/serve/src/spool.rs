//! The crash-safe job spool (DESIGN.md §14).
//!
//! Jobs past the server's size threshold are written to disk *before*
//! they are queued, so a SIGKILL'd daemon loses no accepted work:
//!
//! ```text
//! spool/
//!   job-00000007.req    one Align frame (wire format, CRC32-framed)
//!   job-00000007.ckpt   §10 checkpoint snapshot, updated as the job runs
//!   job-00000007.done   one response frame, written once
//! ```
//!
//! Lifecycle: `.req` appears at admission (atomic tmp → rename), `.ckpt`
//! while running (the checkpoint sink's own atomic double-buffering),
//! `.done` at completion — then `.req`/`.ckpt` are removed. Recovery
//! scans for `.req` without `.done`: with a valid `.ckpt` the job
//! resumes mid-flight, otherwise it restarts from the request. A corrupt
//! `.req` is unrecoverable corruption (the daemon refuses to start and
//! the CLI exits 3); a corrupt `.ckpt` merely costs the checkpointed
//! progress — the job falls back to a fresh run. Every spool byte is
//! under a CRC, so a damaged file is refused rather than read as a job
//! nobody submitted.

use std::path::{Path, PathBuf};

use crate::wire::{self, AlignRequest, Frame};

/// Why the spool could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpoolError {
    /// Filesystem failure.
    Io(String),
    /// A `.req` file failed to decode: accepted work is unrecoverable.
    Corrupt(String),
}

impl std::fmt::Display for SpoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoolError::Io(d) => write!(f, "spool i/o error: {d}"),
            SpoolError::Corrupt(d) => write!(f, "spool corrupt: {d}"),
        }
    }
}

impl std::error::Error for SpoolError {}

/// A job found in the spool at startup.
#[derive(Debug)]
pub struct RecoveredJob {
    /// Server-side sequence number (from the filename).
    pub seq: u64,
    /// The original request, exactly as admitted.
    pub request: AlignRequest,
    /// Path of a snapshot file, when one exists (it may still fail to
    /// decode — the server falls back to a fresh run).
    pub ckpt: Option<PathBuf>,
}

/// The on-disk spool directory.
pub struct Spool {
    dir: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) the spool directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SpoolError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SpoolError::Io(format!("{}: {e}", dir.display())))?;
        Ok(Spool { dir })
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, seq: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("job-{seq:08}.{ext}"))
    }

    /// Path of a job's checkpoint snapshot.
    pub fn ckpt_path(&self, seq: u64) -> PathBuf {
        self.path_for(seq, "ckpt")
    }

    /// Path of a job's result file.
    pub fn done_path(&self, seq: u64) -> PathBuf {
        self.path_for(seq, "done")
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), SpoolError> {
        let tmp = path.with_extension("tmp");
        let io = |e: std::io::Error| SpoolError::Io(format!("{}: {e}", path.display()));
        std::fs::write(&tmp, bytes).map_err(io)?;
        // fsync before rename so the rename never exposes a hole.
        let f = std::fs::File::open(&tmp).map_err(io)?;
        f.sync_all().map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Durably records an admitted request.
    pub fn write_request(&self, seq: u64, request: &AlignRequest) -> Result<(), SpoolError> {
        let bytes = wire::encode_frame(&Frame::Align(request.clone()));
        self.write_atomic(&self.path_for(seq, "req"), &bytes)
    }

    /// Durably records a job's terminal response (the exact frame a
    /// connected client would have received — the kill–restore test
    /// compares these files byte-for-byte).
    pub fn write_done(&self, seq: u64, response: &Frame) -> Result<(), SpoolError> {
        self.write_atomic(&self.done_path(seq), &wire::encode_frame(response))
    }

    /// Reads back a job's terminal response, if present and intact.
    pub fn read_done(&self, seq: u64) -> Option<Frame> {
        read_frame_file(&self.done_path(seq)).ok()
    }

    /// Removes a completed job's `.req` and `.ckpt` (the `.done` file
    /// stays as the durable result). Best-effort: a crash between
    /// `write_done` and this call is resolved at recovery by the
    /// presence of `.done`.
    pub fn mark_complete(&self, seq: u64) {
        let _ = std::fs::remove_file(self.path_for(seq, "req"));
        let _ = std::fs::remove_file(self.ckpt_path(seq));
    }

    /// Removes every trace of a job that will never run (e.g. its queue
    /// push was refused after the `.req` was written).
    pub fn forget(&self, seq: u64) {
        let _ = std::fs::remove_file(self.path_for(seq, "req"));
        let _ = std::fs::remove_file(self.ckpt_path(seq));
        let _ = std::fs::remove_file(self.done_path(seq));
    }

    /// Scans the spool: every `.req` without a `.done` is returned for
    /// re-execution, oldest first. Also returns the next free sequence
    /// number (1 past the largest seen anywhere in the spool).
    pub fn recover(&self) -> Result<(Vec<RecoveredJob>, u64), SpoolError> {
        let mut max_seq = 0u64;
        let mut pending = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| SpoolError::Io(format!("{}: {e}", self.dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| SpoolError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((seq, ext)) = parse_name(name) else {
                continue;
            };
            max_seq = max_seq.max(seq);
            if ext != "req" {
                continue;
            }
            if self.done_path(seq).exists() {
                // Completed just before the crash; result is durable.
                continue;
            }
            let path = entry.path();
            let request = match read_frame_file(&path)? {
                Frame::Align(req) => req,
                other => {
                    return Err(SpoolError::Corrupt(format!(
                        "{}: holds a {other:?} frame, not an Align request",
                        path.display()
                    )))
                }
            };
            let ckpt = self.ckpt_path(seq);
            pending.push(RecoveredJob {
                seq,
                request,
                ckpt: ckpt.exists().then_some(ckpt),
            });
        }
        pending.sort_by_key(|j| j.seq);
        Ok((pending, max_seq + 1))
    }

    /// The ordered deletion plan for [`Spool::gc`]: keep the newest
    /// `keep_done` completed results, collect everything older. Within
    /// one job the order is `.done` before `.req` before `.ckpt`, so at
    /// every prefix of the plan an accepted job is either durably
    /// answered (`.done` still present) or re-runnable at recovery
    /// (`.req` still present) — a crash mid-GC can cost duplicate work,
    /// never lose a job. Jobs without a `.done` are never planned: GC
    /// only ever touches completed work.
    pub fn gc_plan(&self, keep_done: usize) -> Vec<PathBuf> {
        let mut done_seqs: Vec<u64> = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((seq, "done")) = parse_name(name) {
                done_seqs.push(seq);
            }
        }
        done_seqs.sort_unstable();
        let excess = done_seqs.len().saturating_sub(keep_done);
        let mut plan = Vec::new();
        for seq in done_seqs.into_iter().take(excess) {
            plan.push(self.done_path(seq));
            for ext in ["req", "ckpt"] {
                let p = self.path_for(seq, ext);
                if p.exists() {
                    plan.push(p);
                }
            }
        }
        plan
    }

    /// Applies the retention cap: removes completed jobs beyond the
    /// newest `keep_done`, in the crash-safe order of [`Spool::gc_plan`].
    /// Best-effort (a file that will not delete is retried by the next
    /// pass); returns how many files were removed.
    pub fn gc(&self, keep_done: usize) -> usize {
        let mut removed = 0;
        for path in self.gc_plan(keep_done) {
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Every `(seq, response)` recorded in the spool, ordered by seq —
    /// the kill–restore test's comparison set.
    pub fn done_results(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((seq, "done")) = parse_name(name) {
                if let Ok(bytes) = std::fs::read(entry.path()) {
                    out.push((seq, bytes));
                }
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out
    }
}

/// Reads a spool file that must hold exactly one intact frame.
fn read_frame_file(path: &Path) -> Result<Frame, SpoolError> {
    let bytes =
        std::fs::read(path).map_err(|e| SpoolError::Io(format!("{}: {e}", path.display())))?;
    let mut rest = bytes.as_slice();
    match wire::read_frame(&mut rest) {
        Ok(frame) if rest.is_empty() => Ok(frame),
        Ok(_) => Err(SpoolError::Corrupt(format!(
            "{}: trailing bytes after the frame",
            path.display()
        ))),
        Err(e) => Err(SpoolError::Corrupt(format!("{}: {e}", path.display()))),
    }
}

/// Parses `job-00000007.req` into `(7, "req")`.
fn parse_name(name: &str) -> Option<(u64, &str)> {
    let rest = name.strip_prefix("job-")?;
    let (num, ext) = rest.split_once('.')?;
    let seq = num.parse::<u64>().ok()?;
    Some((seq, ext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{AlignOk, ErrorCode};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flsa-spool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn request(id: u64) -> AlignRequest {
        AlignRequest {
            id,
            deadline_ms: 0,
            threads: 0,
            k: 4,
            gap: -2,
            base_cells: 256,
            matrix: "dna".to_string(),
            seq_a: b"ACGT".to_vec(),
            seq_b: b"ACG".to_vec(),
        }
    }

    #[test]
    fn request_round_trips_through_recovery() {
        let spool = Spool::open(tmpdir("roundtrip")).unwrap();
        spool.write_request(3, &request(30)).unwrap();
        spool.write_request(1, &request(10)).unwrap();
        let (jobs, next) = spool.recover().unwrap();
        assert_eq!(next, 4);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].seq, 1, "oldest first");
        assert_eq!(jobs[0].request, request(10));
        assert!(jobs[0].ckpt.is_none());
    }

    #[test]
    fn done_jobs_are_not_recovered_and_results_read_back() {
        let spool = Spool::open(tmpdir("done")).unwrap();
        spool.write_request(5, &request(50)).unwrap();
        let resp = Frame::Ok(AlignOk {
            id: 50,
            score: 9,
            cigar: "4M".to_string(),
        });
        spool.write_done(5, &resp).unwrap();
        spool.mark_complete(5);
        let (jobs, next) = spool.recover().unwrap();
        assert!(jobs.is_empty());
        assert_eq!(next, 6);
        assert_eq!(spool.read_done(5), Some(resp));
        assert_eq!(spool.done_results().len(), 1);
    }

    #[test]
    fn corrupt_request_is_unrecoverable() {
        let spool = Spool::open(tmpdir("corrupt")).unwrap();
        spool.write_request(2, &request(20)).unwrap();
        let path = spool.dir().join("job-00000002.req");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, bytes).unwrap();
        let err = spool.recover().unwrap_err();
        assert!(matches!(err, SpoolError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn every_bit_flip_of_a_spool_file_is_refused() {
        let spool = Spool::open(tmpdir("flips")).unwrap();
        let flips = |path: &Path, check: &dyn Fn(usize)| {
            let bytes = std::fs::read(path).unwrap();
            for bit in 0..bytes.len() * 8 {
                let mut m = bytes.clone();
                m[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(path, m).unwrap();
                check(bit);
            }
            std::fs::remove_file(path).unwrap();
        };
        spool.write_request(1, &request(10)).unwrap();
        flips(&spool.path_for(1, "req"), &|bit| {
            let got = spool.recover();
            assert!(
                matches!(got, Err(SpoolError::Corrupt(_))),
                "bit {bit}: {got:?}"
            );
        });
        spool.write_done(1, &done_frame(10)).unwrap();
        flips(&spool.done_path(1), &|bit| {
            assert_eq!(spool.read_done(1), None, "bit {bit}");
        });
    }

    #[test]
    fn wrong_frame_kind_in_req_is_corrupt() {
        let spool = Spool::open(tmpdir("wrongkind")).unwrap();
        let bytes = wire::encode_frame(&Frame::Fail(crate::wire::AlignFail {
            id: 1,
            code: ErrorCode::Internal,
            detail: String::new(),
        }));
        std::fs::write(spool.dir().join("job-00000009.req"), bytes).unwrap();
        assert!(matches!(
            spool.recover().unwrap_err(),
            SpoolError::Corrupt(_)
        ));
    }

    fn done_frame(id: u64) -> Frame {
        Frame::Ok(AlignOk {
            id,
            score: 1,
            cigar: "3M".to_string(),
        })
    }

    /// Builds the GC fixture: seqs 1–4 completed (`.done` only), seq 5
    /// completed but interrupted before `mark_complete` (`.req` +
    /// `.ckpt` + `.done` — the crash-window shape), seqs 6–7 pending
    /// (`.req` only).
    fn gc_fixture(name: &str) -> Spool {
        let spool = Spool::open(tmpdir(name)).unwrap();
        for seq in 1..=4 {
            spool.write_done(seq, &done_frame(seq)).unwrap();
        }
        spool.write_request(5, &request(50)).unwrap();
        std::fs::write(spool.ckpt_path(5), b"not a real snapshot").unwrap();
        spool.write_done(5, &done_frame(50)).unwrap();
        for seq in 6..=7 {
            spool.write_request(seq, &request(seq * 10)).unwrap();
        }
        spool
    }

    #[test]
    fn gc_caps_results_and_never_touches_pending_jobs() {
        let spool = gc_fixture("gc-cap");
        let removed = spool.gc(2);
        // Seqs 1–3 collected (one file each); 4 and 5 are the newest 2.
        assert_eq!(removed, 3);
        assert!(spool.read_done(3).is_none());
        assert!(spool.read_done(4).is_some());
        assert!(spool.read_done(5).is_some());
        let (jobs, _) = spool.recover().unwrap();
        let pending: Vec<u64> = jobs.iter().map(|j| j.seq).collect();
        assert_eq!(pending, vec![6, 7], "pending jobs must survive GC");
        // Under the cap: a second pass is a no-op.
        assert_eq!(spool.gc(2), 0);
    }

    #[test]
    fn gc_plan_deletes_done_before_req_within_a_job() {
        let spool = gc_fixture("gc-order");
        let plan = spool.gc_plan(0);
        let exts_for = |seq: u64| -> Vec<String> {
            plan.iter()
                .filter_map(|p| parse_name(p.file_name()?.to_str()?))
                .filter(|(s, _)| *s == seq)
                .map(|(_, ext)| ext.to_string())
                .collect()
        };
        // The crash-window job has all three files planned, `.done`
        // first so no prefix of the plan leaves it neither answerable
        // nor re-runnable.
        assert_eq!(exts_for(5), vec!["done", "req", "ckpt"]);
        for seq in 1..=4 {
            assert_eq!(exts_for(seq), vec!["done"]);
        }
        // Pending jobs are not in the plan at all.
        assert!(exts_for(6).is_empty());
        assert!(exts_for(7).is_empty());
    }

    #[test]
    fn restart_mid_gc_never_orphans_an_accepted_job() {
        // Replay a crash at every point of the GC: for each prefix of
        // the deletion plan, apply exactly that prefix to a fresh spool
        // and restart (recover). Accepted-but-unanswered jobs must
        // always come back, and the crash-window job must always be
        // either durably answered or re-runnable.
        let plan_len = gc_fixture("gc-plan-probe").gc_plan(0).len();
        assert!(plan_len >= 7, "fixture should plan 4 + 3 deletions");
        for crash_after in 0..=plan_len {
            let spool = gc_fixture("gc-crash");
            let plan = spool.gc_plan(0);
            assert_eq!(plan.len(), plan_len, "plan must be deterministic");
            for path in &plan[..crash_after] {
                std::fs::remove_file(path).unwrap();
            }
            // Restart: recovery must decode cleanly...
            let (jobs, _) = spool
                .recover()
                .unwrap_or_else(|e| panic!("crash after {crash_after}: {e}"));
            let recovered: Vec<u64> = jobs.iter().map(|j| j.seq).collect();
            // ...pending jobs are never lost...
            for seq in [6, 7] {
                assert!(
                    recovered.contains(&seq),
                    "crash after {crash_after}: pending job {seq} orphaned"
                );
            }
            // ...and the crash-window job is answered, re-runnable, or
            // intentionally collected. Because `.done` is planned
            // before `.req`, "collected" is exactly "the `.req`
            // deletion has executed" — there is no prefix where the
            // job is half-deleted into an orphan.
            let req5 = plan
                .iter()
                .position(|p| p == &spool.done_path(5).with_extension("req"))
                .expect("crash-window .req is planned");
            let collected = crash_after > req5;
            assert!(
                collected || spool.read_done(5).is_some() || recovered.contains(&5),
                "crash after {crash_after}: job 5 orphaned"
            );
        }
    }

    #[test]
    fn forget_removes_every_trace() {
        let spool = Spool::open(tmpdir("forget")).unwrap();
        spool.write_request(7, &request(70)).unwrap();
        spool.forget(7);
        let (jobs, next) = spool.recover().unwrap();
        assert!(jobs.is_empty());
        assert_eq!(next, 1, "empty spool restarts numbering");
    }
}
