//! Minibatch SGD training with momentum, weight decay, and stepwise
//! learning-rate decay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::Dataset;
use crate::nn::Mlp;

/// Optimizer and schedule hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// ℓ2 weight decay.
    pub weight_decay: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Multiply the learning rate by this factor every `decay_every` epochs
    /// (1.0 disables decay).
    pub lr_decay: f64,
    /// Epoch interval of the learning-rate decay.
    pub decay_every: usize,
    /// Seed for minibatch shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            batch_size: 32,
            lr_decay: 1.0,
            decay_every: 10,
            seed: 0,
        }
    }
}

/// A checkpointable trainer: model weights, momentum buffers, and the epoch
/// counter all live here, so cloning a `Trainer` is a full checkpoint and
/// `train_epochs` resumes exactly — the property ASHA's promotions rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct Trainer {
    model: Mlp,
    config: TrainConfig,
    vel_w: Vec<Vec<f64>>,
    vel_b: Vec<Vec<f64>>,
    epochs_done: usize,
}

impl Trainer {
    /// Wrap a model with an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the batch size is zero or the learning rate is not
    /// positive.
    pub fn new(model: Mlp, config: TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        let (vel_w, vel_b) = model.zero_like();
        Trainer {
            model,
            config,
            vel_w,
            vel_b,
            epochs_done: 0,
        }
    }

    /// The current model.
    #[cfg(test)]
    pub(crate) fn model(&self) -> &Mlp {
        &self.model
    }

    /// Epochs trained so far (the trial's cumulative resource).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Current learning rate after decay.
    pub(crate) fn current_lr(&self) -> f64 {
        if self.config.lr_decay == 1.0 || self.config.decay_every == 0 {
            self.config.learning_rate
        } else {
            let steps = self.epochs_done / self.config.decay_every;
            self.config.learning_rate * self.config.lr_decay.powi(steps as i32)
        }
    }

    /// Train for `epochs` more epochs on `data` (one pass each, shuffled).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train_epochs(&mut self, data: &Dataset, epochs: usize) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let n = data.len();
        for _ in 0..epochs {
            let lr = self.current_lr();
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(
                self.config.seed ^ (self.epochs_done as u64).wrapping_mul(0x9E37),
            );
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.config.batch_size) {
                let (mut acc_w, mut acc_b) = self.model.zero_like();
                for &idx in batch {
                    let (_, gw, gb) = self.model.backprop(&data.xs[idx], data.ys[idx]);
                    for (a, g) in acc_w.iter_mut().zip(&gw) {
                        for (ai, gi) in a.iter_mut().zip(g) {
                            *ai += gi / batch.len() as f64;
                        }
                    }
                    for (a, g) in acc_b.iter_mut().zip(&gb) {
                        for (ai, gi) in a.iter_mut().zip(g) {
                            *ai += gi / batch.len() as f64;
                        }
                    }
                }
                self.model.apply_update(
                    &acc_w,
                    &acc_b,
                    &mut self.vel_w,
                    &mut self.vel_b,
                    lr,
                    self.config.momentum,
                    self.config.weight_decay,
                );
            }
            self.epochs_done += 1;
        }
    }

    /// Mean cross-entropy loss and accuracy on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn evaluate(&self, data: &Dataset) -> (f64, f64) {
        assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
        let mut loss = 0.0;
        let mut correct = 0usize;
        for (x, &y) in data.xs.iter().zip(&data.ys) {
            loss += self.model.loss_one(x, y);
            if self.model.predict(x) == y {
                correct += 1;
            }
        }
        (loss / data.len() as f64, correct as f64 / data.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Activation;

    fn blobs() -> crate::data::Split {
        Dataset::gaussian_blobs(3, 2, 200, 0.4, 11).split(0.6, 0.2)
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let data = blobs();
        let mlp = Mlp::new(2, &[16], 3, Activation::Relu, 0.2, 3);
        let mut t = Trainer::new(mlp, TrainConfig::default());
        let (loss0, _) = t.evaluate(&data.validation);
        t.train_epochs(&data.train, 20);
        let (loss1, acc1) = t.evaluate(&data.validation);
        assert!(loss1 < loss0, "loss went {loss0} -> {loss1}");
        assert!(acc1 > 0.8, "accuracy {acc1} should beat chance (0.33)");
    }

    #[test]
    fn checkpoint_resume_is_exact() {
        let data = blobs();
        let mlp = Mlp::new(2, &[8], 3, Activation::Tanh, 0.2, 4);
        let mut a = Trainer::new(mlp.clone(), TrainConfig::default());
        a.train_epochs(&data.train, 6);
        let mut b = Trainer::new(mlp, TrainConfig::default());
        b.train_epochs(&data.train, 3);
        let snapshot = b.clone(); // checkpoint
        let mut b = snapshot;
        b.train_epochs(&data.train, 3);
        assert_eq!(a.model(), b.model(), "3+3 epochs must equal 6 epochs");
        assert_eq!(a.epochs_done(), 6);
    }

    #[test]
    fn lr_decay_schedule() {
        let mlp = Mlp::new(2, &[4], 2, Activation::Relu, 0.1, 0);
        let mut t = Trainer::new(
            mlp,
            TrainConfig {
                learning_rate: 1.0,
                lr_decay: 0.1,
                decay_every: 2,
                ..TrainConfig::default()
            },
        );
        assert_eq!(t.current_lr(), 1.0);
        let data = Dataset::gaussian_blobs(2, 2, 20, 0.3, 0);
        t.train_epochs(&data, 2);
        assert!((t.current_lr() - 0.1).abs() < 1e-12);
        t.train_epochs(&data, 2);
        assert!((t.current_lr() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn spirals_need_capacity() {
        // A wider net should beat a tiny one on two-spirals, demonstrating a
        // real hyperparameter effect for the tuning examples.
        let data = Dataset::two_spirals(150, 0.05, 5).split(0.6, 0.2);
        let mut small = Trainer::new(
            Mlp::new(2, &[2], 2, Activation::Tanh, 0.5, 6),
            TrainConfig::default(),
        );
        let mut large = Trainer::new(
            Mlp::new(2, &[32, 32], 2, Activation::Tanh, 0.5, 6),
            TrainConfig::default(),
        );
        small.train_epochs(&data.train, 40);
        large.train_epochs(&data.train, 40);
        let (_, acc_small) = small.evaluate(&data.validation);
        let (_, acc_large) = large.evaluate(&data.validation);
        assert!(
            acc_large > acc_small + 0.05,
            "large {acc_large} vs small {acc_small}"
        );
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let mlp = Mlp::new(2, &[4], 2, Activation::Relu, 0.1, 0);
        let _ = Trainer::new(
            mlp,
            TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
        );
    }
}
