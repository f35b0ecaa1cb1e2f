#pragma once
// Engine-level kernel threading: there is none. An engine pass runs on the
// calling thread; local parallelism lives only in sweep shards and the
// chunk threads of run_trial_block (docs/kernels.md). kernel_threads()
// stays so run records can keep stamping the executor count per pass.

namespace h3dfact::hdc::kernels {

/// Executors one engine pass uses: always 1, the calling thread.
[[nodiscard]] inline unsigned kernel_threads() { return 1; }

}  // namespace h3dfact::hdc::kernels
