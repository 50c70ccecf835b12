import re

import pytest

from tgkit.synth import toy_corpus, toy_similarity

# input checks no other test reaches: the call, its exception type and its message
INPUT_CHECKS = {
    "num_videos": (lambda: toy_corpus(num_videos=0), ValueError, "num_videos must be >= 1, got 0"),
    "num_videos_float": (lambda: toy_corpus(num_videos=2.5), ValueError,
                         "num_videos must be an integer, got 2.5"),
    "num_videos_bool": (lambda: toy_corpus(num_videos=True), ValueError,
                        "num_videos must be an integer, got True"),
    "num_clips": (lambda: toy_corpus(num_clips=9), ValueError, "num_clips must be >= 10, got 9"),
    "similarity_num_videos": (lambda: toy_similarity(num_videos=2.5), ValueError,
                              "num_videos must be an integer, got 2.5"),
    "similarity_num_clips": (lambda: toy_similarity(num_clips=4), ValueError,
                             "num_clips must be >= 5, got 4"),
    "num_concepts": (lambda: toy_similarity(num_concepts=0), ValueError,
                     "num_concepts must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
