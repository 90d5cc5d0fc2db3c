//! Tables 1–3 (and the remaining benchmark spaces): the hyperparameter
//! search spaces of the paper, as encoded in `asha::space::presets`.
//! Takes no arguments: any is a usage error (exit 2).

use asha::space::presets;

fn main() {
    asha_bench::cli::Cli::no_args("tables_search_spaces").parse();
    println!("Table 1: hyperparameters for the small CNN architecture tuning task");
    println!("{}", presets::small_cnn_space());
    println!("Table 2: hyperparameters for the PTB LSTM task (Section 4.3)");
    println!("{}", presets::ptb_lstm_space());
    println!("Table 3: hyperparameters for the 16-GPU near-SOTA LSTM task (Section 4.3.1)");
    println!("{}", presets::dropconnect_lstm_space());
    println!("Benchmark 1 (Sections 4.1-4.2): cuda-convnet CIFAR-10 search space (Li et al. 2017)");
    println!("{}", presets::cuda_convnet_space());
    println!("Appendix A.2: kernel-SVM search space (Klein et al. 2017)");
    println!("{}", presets::svm_space());
}
