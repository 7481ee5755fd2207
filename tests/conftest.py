import numpy as np
import pytest

from zslkit.embedding import EmbeddingStore


@pytest.fixture
def toy_store() -> EmbeddingStore:
    table = {
        "run": np.array([1.0, 0.0, 0.0]),
        "jump": np.array([0.0, 1.0, 0.0]),
        "brush": np.array([1.0, 0.0, 0.0]),
        "hair": np.array([0.0, 1.0, 0.0]),
        "walk": np.array([2.0, 2.0, 0.0]),
        "ride": np.array([0.0, 0.0, 1.0]),
        "horse": np.array([0.0, 1.0, 1.0]),
    }
    return EmbeddingStore(dimension=3, table=table)


def write_embedding_file(path, entries: dict[str, list[float]]) -> None:
    dim = len(next(iter(entries.values())))
    lines = [f"{len(entries)} {dim}"]
    for token, values in entries.items():
        lines.append(token + " " + " ".join(str(v) for v in values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

