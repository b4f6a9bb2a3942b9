"""From-scratch L2-regularized logistic regression.

The paper's link-prediction protocol (Section 6.4) trains a binary logistic
regression classifier on concatenated edge embeddings.  No sklearn is
available in this environment, so the classifier is implemented here:
full-batch objective with analytic gradient, optimized by scipy's L-BFGS-B.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Parameters
    ----------
    l2:
        Regularization strength on the weights (the intercept is not
        penalized).
    max_iterations:
        L-BFGS iteration budget.
    tol:
        Optimizer convergence tolerance.

    Examples
    --------
    >>> import numpy as np
    >>> x = np.array([[0.0], [1.0], [2.0], [3.0]])
    >>> y = np.array([0, 0, 1, 1])
    >>> model = LogisticRegression().fit(x, y)
    >>> (model.predict_proba(x) > 0.5).astype(int).tolist()
    [0, 0, 1, 1]
    """

    def __init__(self, l2: float = 1.0, max_iterations: int = 200, tol: float = 1e-6):
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.l2 = l2
        self.max_iterations = max_iterations
        self.tol = tol
        self.weights: Optional[np.ndarray] = None
        self.intercept: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def _standardize(self, features: np.ndarray, fit: bool) -> np.ndarray:
        """Feature standardization (helps L-BFGS conditioning a lot)."""
        if fit:
            self._mean = features.mean(axis=0)
            scale = features.std(axis=0)
            self._scale = np.where(scale > 0, scale, 1.0)
        assert self._mean is not None and self._scale is not None
        return (features - self._mean) / self._scale

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit on ``n x d`` features and binary labels; returns ``self``."""
        # Imported on use: scipy.optimize brings scipy's special, fft and
        # spatial packages, which no serving, refresh or fit process runs.
        from scipy.optimize import minimize

        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if features.shape[0] != labels.size:
            raise ValueError("features and labels disagree on sample count")
        if not np.isin(np.unique(labels), (0.0, 1.0)).all():
            raise ValueError("labels must be binary (0/1)")
        x = self._standardize(features, fit=True)
        n, d = x.shape

        def objective(theta: np.ndarray) -> Tuple[float, np.ndarray]:
            w, b = theta[:d], theta[d]
            z = x @ w + b
            # log(1 + e^{-|z|}) formulation avoids overflow for large |z|.
            losses = np.logaddexp(0.0, z) - labels * z
            value = losses.sum() / n + 0.5 * self.l2 * float(w @ w) / n
            residual = _sigmoid(z) - labels
            grad_w = x.T @ residual / n + self.l2 * w / n
            grad_b = residual.sum() / n
            return float(value), np.r_[grad_w, grad_b]

        theta0 = np.zeros(d + 1)
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations, "gtol": self.tol},
        )
        self.weights = result.x[:d]
        self.intercept = float(result.x[d])
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw scores ``x @ w + b`` (monotone with probabilities)."""
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        x = self._standardize(np.asarray(features, dtype=np.float64), fit=False)
        return x @ self.weights + self.intercept

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Predicted probability of the positive class."""
        return _sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)
