"""The per-tree reference forest: the oracle for ``CompiledForest``.

The product predicts through the compiled level-synchronous
traversal (:mod:`repro.ml.compiled`).  This module keeps the loop it
replaced — one batched descent per tree, aligned onto the forest's
global class order and accumulated in tree order — so the parity
tests can pin the compiled output to it with ``.tobytes()`` equality.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fitted, check_X


def legacy_predict_proba(forest, X: np.ndarray) -> np.ndarray:
    """Averaged class probabilities of a fitted forest, tree by tree."""
    check_fitted(forest, "estimators_")
    X = check_X(X, forest.n_features_)
    class_index = {c: i for i, c in enumerate(forest.classes_)}
    total = np.zeros((X.shape[0], len(forest.classes_)), dtype=np.float64)
    for tree in forest.estimators_:
        columns = np.array(
            [class_index[c] for c in tree.classes_], dtype=np.intp
        )
        total[:, columns] += tree.predict_proba(X)
    total /= len(forest.estimators_)
    return total
