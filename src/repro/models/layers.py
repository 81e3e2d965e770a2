"""Minimal neural-network layers with explicit forward/backward passes.

The DUST fine-tuning architecture (paper Fig. 3, bottom right) appends a
dropout layer and two linear layers to the frozen base encoder.  These layers
are implemented directly in numpy — forward, backward and parameter/gradient
access — so the trainer has no framework dependency.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.embeddings.base import padded_matmul
from repro.utils.errors import TrainingError
from repro.utils.rng import seeded_rng


class Layer(abc.ABC):
    """A differentiable layer operating on batches of shape ``(batch, features)``."""

    training: bool = True

    @abc.abstractmethod
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute outputs and cache whatever backward needs."""

    @abc.abstractmethod
    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        """Propagate gradients back to the inputs, accumulating parameter grads."""

    def parameters(self) -> list[np.ndarray]:
        """Trainable parameter arrays (possibly empty)."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradient arrays matching :meth:`parameters` order."""
        return []

    def zero_gradients(self) -> None:
        """Reset accumulated parameter gradients."""
        for gradient in self.gradients():
            gradient.fill(0.0)


class Linear(Layer):
    """Fully connected layer ``y = x @ W + b`` with Xavier initialisation."""

    def __init__(self, in_features: int, out_features: int, *, seed: int | None = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise TrainingError(
                f"Linear layer dimensions must be positive, got "
                f"({in_features}, {out_features})"
            )
        rng = seeded_rng(seed)
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features, dtype=np.float64)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        # Row-padded, so an output row depends only on its own input row.
        self._inputs = np.asarray(inputs, dtype=np.float64)
        return padded_matmul(self._inputs, self.weight) + self.bias

    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise TrainingError("Linear.backward called before forward")
        self.weight_grad += self._inputs.T @ grad_outputs
        self.bias_grad += grad_outputs.sum(axis=0)
        return grad_outputs @ self.weight.T

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.weight_grad, self.bias_grad]


class Tanh(Layer):
    """Element-wise tanh non-linearity."""

    def __init__(self) -> None:
        self._outputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._outputs = np.tanh(np.asarray(inputs, dtype=np.float64))
        return self._outputs

    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        if self._outputs is None:
            raise TrainingError("Tanh.backward called before forward")
        return grad_outputs * (1.0 - self._outputs**2)


class Dropout(Layer):
    """Inverted dropout: active during training, identity during inference."""

    def __init__(self, rate: float = 0.1, *, seed: int | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise TrainingError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = seeded_rng(seed)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if not self.training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep_probability = 1.0 - self.rate
        self._mask = (
            self._rng.random(inputs.shape) < keep_probability
        ).astype(np.float64) / keep_probability
        return inputs * self._mask

    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_outputs
        return grad_outputs * self._mask


class EmbeddingHead:
    """The DUST fine-tuning head: dropout → linear → tanh → linear.

    The head maps frozen base-encoder features to the final tuple embedding
    space; only its parameters are updated during fine-tuning.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 256,
        output_dim: int = 768,
        *,
        dropout_rate: float = 0.1,
        seed: int | None = None,
    ) -> None:
        base_seed = seed if seed is not None else 0
        self.layers: list[Layer] = [
            Dropout(dropout_rate, seed=base_seed + 1),
            Linear(input_dim, hidden_dim, seed=base_seed + 2),
            Tanh(),
            Linear(hidden_dim, output_dim, seed=base_seed + 3),
        ]
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim

    # --------------------------------------------------------------- training
    def set_training(self, training: bool) -> None:
        """Switch dropout behaviour between training and inference."""
        for layer in self.layers:
            layer.training = training

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass over a batch ``(batch, input_dim)``."""
        outputs = np.asarray(inputs, dtype=np.float64)
        if outputs.ndim == 1:
            outputs = outputs[None, :]
        for layer in self.layers:
            outputs = layer.forward(outputs)
        return outputs

    def backward(self, grad_outputs: np.ndarray) -> np.ndarray:
        """Backward pass, accumulating parameter gradients."""
        gradient = grad_outputs
        for layer in reversed(self.layers):
            gradient = layer.backward(gradient)
        return gradient

    def parameters(self) -> list[np.ndarray]:
        """All trainable parameters in a stable order."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        """Gradients matching :meth:`parameters`."""
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def zero_gradients(self) -> None:
        """Reset all accumulated gradients to zero."""
        for layer in self.layers:
            layer.zero_gradients()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(p.size for p in self.parameters()))
