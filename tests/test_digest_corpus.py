"""Every output of the digest corpus is byte-identical to the committed one.

See `tests/digest_corpus.py` for the inputs, the runs and how to rebuild
the table after an intended change of output.
"""

import json

import digest_corpus


def test_outputs_match_the_committed_digests(tmp_path):
    expected = json.loads(digest_corpus.TABLE.read_text())
    got = digest_corpus.corpus(str(tmp_path))
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert changed == [], f"{len(changed)} of {len(got)} digests differ"
