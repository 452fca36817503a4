import os
import random

import pytest

SEED = int(os.environ.get("TATEKIT_SEED", "20260810"))


@pytest.fixture
def rng():
    return random.Random(SEED)
