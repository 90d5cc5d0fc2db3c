//! Tables 1–3 (and the remaining benchmark spaces): the hyperparameter
//! search spaces of the paper, as encoded in `asha::space::presets`.
//! Takes no arguments: any is a usage error (exit 2).

use asha::space::presets;
use asha_bench::outln;

fn main() {
    asha_bench::cli::Cli::no_args("tables_search_spaces").parse();
    outln!("Table 1: hyperparameters for the small CNN architecture tuning task");
    outln!("{}", presets::small_cnn_space());
    outln!("Table 2: hyperparameters for the PTB LSTM task (Section 4.3)");
    outln!("{}", presets::ptb_lstm_space());
    outln!("Table 3: hyperparameters for the 16-GPU near-SOTA LSTM task (Section 4.3.1)");
    outln!("{}", presets::dropconnect_lstm_space());
    outln!("Benchmark 1 (Sections 4.1-4.2): cuda-convnet CIFAR-10 search space (Li et al. 2017)");
    outln!("{}", presets::cuda_convnet_space());
    outln!("Appendix A.2: kernel-SVM search space (Klein et al. 2017)");
    outln!("{}", presets::svm_space());
}
