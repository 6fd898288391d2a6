"""Write golden/base<N>.json, the reference answers for one corpus base.

    python3 perfbench/golden.py --base 1000

Runs the exhaustive oracle on the instances within its bound (minutes),
so it is never part of a benchmark run.
"""

import sys

from run import put_kcmt_on_path

if __name__ == "__main__":
    put_kcmt_on_path()
    import corpus
    sys.exit(corpus.main())
