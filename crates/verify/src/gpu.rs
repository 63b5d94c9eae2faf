//! Pass 4 — GPU-binding completeness.
//!
//! Consumes the binding facts collected by the dataflow pass. When the
//! schedule is for a GPU target (declared via [`VerifyOptions::gpu`], or
//! inferred from the presence of any `blockIdx.*`/`threadIdx.*` binding),
//! the kernel must bind at least one block axis and one thread axis, must
//! not bind the same hardware axis twice, and should fit the per-block
//! thread limit. Occupancy overruns are warnings: the simulator clamps
//! rather than rejects them, and generated conv2d schedules legitimately
//! exceed the limit on wide thread tiles.

use crate::dataflow::Facts;
use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::VerifyOptions;
use tlp_schedule::ScheduleSequence;

/// Hardware limit for the per-block thread product (V404).
const MAX_THREADS_PER_BLOCK: i128 = 1024;

pub(crate) fn check(
    opts: &VerifyOptions,
    schedule: &ScheduleSequence,
    facts: &Facts,
    out: &mut Vec<Diagnostic>,
) {
    let binds = &facts.binds;
    let any_bind = !binds.is_empty();
    let gpu = opts.gpu.unwrap_or(any_bind);

    if !gpu {
        if let Some(first) = binds.first() {
            out.push(Diagnostic::at(
                Code::MixedDeviceAnnotations,
                Severity::Warn,
                first.step,
                format!("`{}` bound on a CPU target", first.axis(schedule)),
            ));
        }
        return;
    }

    if !binds.iter().any(|b| b.thread) {
        out.push(Diagnostic::global(
            Code::MissingThreadBinding,
            Severity::Error,
            "GPU schedule binds no threadIdx axis",
        ));
    }
    if !binds.iter().any(|b| !b.thread) {
        out.push(Diagnostic::global(
            Code::MissingBlockBinding,
            Severity::Error,
            "GPU schedule binds no blockIdx axis",
        ));
    }

    for (i, b) in binds.iter().enumerate() {
        let axis = b.axis(schedule);
        if let Some(first) = binds[..i].iter().find(|f| f.axis(schedule) == axis) {
            out.push(Diagnostic::at(
                Code::DuplicateThreadBinding,
                Severity::Error,
                b.step,
                format!("`{axis}` already bound at step {}", first.step),
            ));
        }
    }

    let threads: i128 = binds.iter().filter(|b| b.thread).fold(1i128, |acc, b| {
        acc.saturating_mul(b.extent.unwrap_or(1) as i128)
    });
    if threads > MAX_THREADS_PER_BLOCK {
        out.push(Diagnostic::global(
            Code::OccupancyExceeded,
            Severity::Warn,
            format!("{threads} threads per block exceed the limit of {MAX_THREADS_PER_BLOCK}"),
        ));
    }

    if any_bind {
        if let Some(step) = facts.first_cpu_annotation {
            out.push(Diagnostic::at(
                Code::MixedDeviceAnnotations,
                Severity::Warn,
                step,
                "parallel/vectorize annotations mixed with GPU thread bindings",
            ));
        }
    }
}
