"""Seeded op lists for the three benchmark workloads.

An op is plain data: the program under test only ever receives these
generated inputs.  ``op(i)`` depends on ``(seed, i)`` alone, so any
prefix of the list is reproducible and runs can take as many ops as
their time window allows.

The properties each op's cost depends on (input size, transform, run
count, content kind) are *stratified* rather than drawn independently:
a golden-ratio sequence with a seeded phase spreads sizes over their
range the same way in every prefix, image parameters follow a second
such walk, and kinds rotate.  Seeds then change the
content and the order but not the cost distribution, which keeps the
per-run medians and p90s comparable across seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("compress", "image", "serve")

_PHI = 0.6180339887498949
#: Step of a second walk, rationally independent of ``_PHI``, for a
#: property that must be spread independently of size.
_SQRT2 = 0.41421356237309515

#: ``compress`` input sizes, bytes (inclusive).
COMPRESS_SIZES = (512, 4096)
#: Length of the English-pi text the ``compress`` slices come from; the
#: slack above the largest size lets the slice offset vary with the seed.
PI_TEXT_BYTES = 5120

#: ``image`` raster edge lengths, pixels (inclusive).
IMAGE_SIZES = (12, 20)
TRANSFORMS = ("pixelate", "blur", "swirl")

#: ``serve`` secrets per job (inclusive).
SERVE_RUNS = (4, 32)
#: Distinct secrets in the repeated pool of a ``serve`` seed.
SERVE_POOL = 6
#: ``serve`` secret lengths, characters (inclusive).
SECRET_LENGTHS = (4, 24)
_SECRET_ALPHABET = "abcdefghijklmnopqrstuvwxyz .?!"

#: Anytime-bound benchmark program, copied from ``benchmarks/run_all.py``
#: so this benchmark does not import another benchmark.
WARMSTART_SOURCE = """
fn main() {
    var buf: u8[32];
    var n: u32 = read_secret(buf, 32);
    var acc: u8 = 0;
    var i: u32 = 0;
    while (i < n) {
        if (buf[i] > 127) {
            acc = acc + 1;
        } else {
            acc = acc ^ buf[i];
        }
        i = i + 1;
    }
    output(acc);
}
"""


def serve_programs():
    """The FlowLang sources ``serve`` jobs run, by name."""
    from repro.apps.countpunct import FLOWLANG_SOURCE
    from repro.apps.flowlang_sources import CHECKSUM_SOURCE
    return {"warmstart": WARMSTART_SOURCE,
            "countpunct": FLOWLANG_SOURCE,
            "checksum": CHECKSUM_SOURCE}


def _rng(workload, seed, index):
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random("%s:%d:%s" % (workload, seed, index))


def _spread(seed, workload, index, step=_PHI):
    """The ``index``-th point of a seeded low-discrepancy walk over
    ``[0, 1)``."""
    phase = _rng(workload, seed, "phase-%r" % step).random()
    return (phase + index * step) % 1.0


def _between(frac, low, high):
    return low + int(frac * (high - low + 1))


def _rotation(seed, workload, index, choices):
    offset = _rng(workload, seed, "rotation").randrange(len(choices))
    return choices[(index + offset) % len(choices)]


class OpSource:
    """The seeded op list of one workload: ``ops.op(i)`` is op ``i``."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        if workload == "compress":
            from repro.apps.pi import workload_of_size
            self._pi = workload_of_size(PI_TEXT_BYTES)
        elif workload == "serve":
            # Half the jobs run only pool secrets, so the pool's lengths
            # are spread evenly rather than drawn: a seed whose six
            # secrets all came out long would make every pooled job slow.
            rng = _rng(workload, seed, "pool")
            low, high = SECRET_LENGTHS
            self._pool = [_secret(rng, low + (high - low) * k
                                  // (SERVE_POOL - 1))
                          for k in range(SERVE_POOL)]
            self._programs = sorted(serve_programs())

    def op(self, index):
        return getattr(self, "_" + self.workload)(index)

    def ops(self, count, start=0):
        return [self.op(i) for i in range(start, start + count)]

    def _compress(self, index):
        rng = _rng("compress", self.seed, index)
        # Log-uniform: every octave of size gets the same share of ops.
        low, high = COMPRESS_SIZES
        size = round(low * (high / low)
                     ** _spread(self.seed, "compress", index))
        kind = _rotation(self.seed, "compress", index, ("pi", "random"))
        if kind == "pi":
            offset = rng.randrange(len(self._pi) - size + 1)
            data = self._pi[offset:offset + size]
        else:
            alphabet = rng.sample(b"abcdefghijklmnopqrstuvwxyz .",
                                  rng.randint(3, 8))
            data = bytes(rng.choice(alphabet) for _ in range(size))
        return {"kind": kind, "data": data}

    def _image(self, index):
        rng = _rng("image", self.seed, index)
        size = _between(_spread(self.seed, "image", index), *IMAGE_SIZES)
        transform = _rotation(self.seed, "image", index, TRANSFORMS)
        pixels = [[(rng.randrange(256), rng.randrange(256),
                    rng.randrange(256)) for _ in range(size)]
                  for _ in range(size)]
        op = {"transform": transform, "size": size, "pixels": pixels}
        # Angle and grid change the cost too, so they are walked as well.
        frac = _spread(self.seed, "image", index, _SQRT2)
        if transform == "swirl":
            op["degrees"] = 90.0 + 630.0 * frac
        else:
            op["grid"] = _between(frac, 2, 6)
        return op

    def _serve(self, index):
        rng = _rng("serve", self.seed, index)
        runs = _between(_spread(self.seed, "serve", index), *SERVE_RUNS)
        program = _rotation(self.seed, "serve", index, self._programs)
        pooled = index % 2 == 0
        if pooled:
            secrets = [rng.choice(self._pool) for _ in range(runs)]
        else:
            secrets = [_secret(rng) for _ in range(runs)]
        return {"program": program, "secrets": secrets, "pooled": pooled}


def _secret(rng, length=None):
    if length is None:
        length = rng.randint(*SECRET_LENGTHS)
    return "".join(rng.choice(_SECRET_ALPHABET) for _ in range(length))
