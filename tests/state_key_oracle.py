"""Reference cycle-search keys.

`canonical_state_key` is the canonical word plus the least projectivized
measure over the canonical labelings.  Two states with equal reference keys
have the same ribbon graph and the same measure up to scale under some
canonical labeling, so this key is a much finer filter than
`splitting._state_key`, which reads the weights alone.

`rational_state_key` reads the weights alone too, as field elements: each
weight divided by their sum, as sorted (num, den) pairs.  Its classes are
those of `splitting._state_key`, which computes the same projective point
in integers.

The tests check that the cycle search finds the same cycle under every key.
"""

from splitseq.traintrack import Measure, TrainTrack, canonical_form


def canonical_state_key(t: TrainTrack, m: Measure):
    word, labs = canonical_form(t)
    weights = [w for _, w in m.weights]
    scale = 1 / sum(weights[1:], weights[0])
    scaled = {b: w * scale for b, w in m.weights}
    key_vec = min(
        tuple(
            (scaled[b].num, scaled[b].den)
            for b in sorted(lab.branch_map, key=lambda b: lab.branch_map[b][0])
        )
        for lab in labs
    )
    return (word, key_vec)


def rational_state_key(t: TrainTrack, m: Measure):
    weights = [w for _, w in m.weights]
    scale = 1 / sum(weights[1:], weights[0])
    return tuple(sorted((s.num, s.den) for s in (w * scale for w in weights)))
