//! R9 fixture: `#[target_feature]` fns called with no dominating
//! feature proof — no caller attribute, no `is_x86_feature_detected!`,
//! no force-gate consultation, no guarded constructor.

#[target_feature(enable = "avx2")]
pub unsafe fn row_update_avx2(cur: &mut [i32]) {
    let _ = cur;
}

pub fn dispatch(cur: &mut [i32]) {
    unsafe { row_update_avx2(cur) }
}

// Same shape at 512-bit width: an avx512f kernel invoked from a plain
// safe fn with no dominating detection — the call site the v2 kernel
// layer's dispatcher must never emit.
#[target_feature(enable = "avx512f")]
pub unsafe fn row_update_avx512(cur: &mut [i32]) {
    let _ = cur;
}

pub fn dispatch_avx512(cur: &mut [i32]) {
    unsafe { row_update_avx512(cur) }
}

// A turbofish is still a call: the const-generic kernel reached as
// `row_update_turbo::<true>(…)` from a plain safe fn must surface too.
#[target_feature(enable = "avx2")]
pub unsafe fn row_update_turbo<const WIDE: bool>(cur: &mut [i32]) {
    let _ = cur;
}

pub fn dispatch_turbo(cur: &mut [i32]) {
    unsafe { row_update_turbo::<true>(cur) }
}
