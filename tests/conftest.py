import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def aes_contexts(monkeypatch):
    """Counts AES contexts as they are built, under "aes", by wrapping the
    one constructor in ``crypto``."""
    from flyover import crypto

    built = Counter()
    new_context = crypto._new_ecb_context

    def counting(key):
        built["aes"] += 1
        return new_context(key)

    monkeypatch.setattr(crypto, "_new_ecb_context", counting)
    return built
