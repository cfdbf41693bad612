"""Golden CLI outputs: every subcommand in text, CSV and JSON, byte for byte.

Each case pins four things: the exact stdout, the exit code, the stderr
and the bytes of the --out file (None: the call writes none).  A case runs
in-process, in a fresh directory holding FILES, so the paths it prints are
the relative ones of its argv.  The expected bytes are literals; nothing
here derives them from the code under test.
"""

import hashlib
import time

import pytest

from epsap.cli import COMMANDS, build_parser, main

FILES = {
    "grid.txt": "0 0\n0 10\n10 0\n10 10\n",  # an exact 2x2 cube of scale 10
    "one.txt": "0 0\n",  # fewer points than any 2x2 grid
    "empty.txt": "",
    "skew.txt": "0 0\n1 5\n9 1\n10 9\n",  # no cube for eps = 1/5
    "line.txt": "1\n2\n4\n",
    "run.txt": "1\n2\n3\n5\n",
    "a.txt": "1 1\n2 2\n",
    "corner.txt": "1 1\n",
    "x.txt": "1 1\n1 3\n2 2\n3 1\n3 3\n",
    "good.txt": "# N=3 r=1 eps=1/5 k=4\n1\n1\n1\n",
    "mono.txt": "# N=3 r=1 eps=1/5 k=3\n1\n1\n1\n",
    "badcolor.txt": "# N=3 r=1 eps=1/5 k=4\n1\n1\nx\n",
    # {1, 2, 4, 5} x [3]^2: free, as {1, 2, 4, 5} holds no 3-progression
    "product.txt": "".join(f"{a} {b} {c}\n" for a in (1, 2, 4, 5)
                           for b in (1, 2, 3) for c in (1, 2, 3)),
    # a 2x2 cube of scale 10^400, past what a float holds
    "huge.txt": "0 0\n0 {0}\n{0} 0\n{0} {0}\n".format(10 ** 400),
}
OUT = "out.txt"  # the --out target of every case that has one

# (argv, exit code, stdout, stderr, bytes of OUT or None)
CASES = [
    ('recognize ap --points 1,3,6 --eps 1/3', 0,
     'accepted\na = 3/4\nd = 5/2\nmargin = 7/12\n', '', None),
    ('recognize ap --points 1,3,6 --eps 1/3 --format csv', 0,
     'accepted,3/4,5/2,7/12\n', '', None),
    ('recognize ap --points 1,3,6 --eps 1/3 --json', 0,
     '{"accepted": true, "command": "recognize ap", '
     '"witness": {"a": {"den": 4, "num": 3}, "d": {"den": 2, "num": 5}, '
     '"margin": {"den": 12, "num": 7}}}\n', '', None),
    ('recognize ap --points 1,3,6 --eps 1/100', 1,
     'rejected\n', '', None),
    ('recognize ap --points 1,3,6 --eps 1/100 --format csv', 1,
     'rejected,,,\n', '', None),
    ('recognize ap --points 1,3,6 --eps 1/100 --json', 1,
     '{"accepted": false, "command": "recognize ap", "witness": null}\n', '', None),
    ('recognize cube --file grid.txt --m 2 --k 2 --eps 1/4', 0,
     'feasible\nd = 10.0\nresidual = 2.5\n', '', None),
    ('recognize cube --file grid.txt --m 2 --k 2 --eps 1/4 --format csv', 0,
     'feasible,10.0,2.5\n', '', None),
    ('recognize cube --file grid.txt --m 2 --k 2 --eps 1/4 --json', 0,
     '{"command": "recognize cube", "exact": true, "status": "feasible", '
     '"witness": {"a": ["0.0", "0.0"], "certified": true, "d": "10.0", '
     '"residual": "2.5", "tol": "1e-09"}}\n', '', None),
    ('recognize cube --file skew.txt --m 2 --k 2 --eps 1/5', 1,
     'infeasible\n', '', None),
    ('recognize cube --file skew.txt --m 2 --k 2 --eps 1/5 --format csv', 1,
     'infeasible,,\n', '', None),
    ('recognize cube --file skew.txt --m 2 --k 2 --eps 1/5 --json', 1,
     '{"command": "recognize cube", "exact": true, "status": "infeasible", '
     '"witness": null}\n', '', None),
    ('recognize cube --file huge.txt --m 2 --k 2 --eps 1/4', 2,
     '',
     'error: coordinate 1 of the point at index (0, 1) has 1329 bits; '
     'recognize_cube computes in floats and needs |x| < 2^500\n',
     None),
    # m is checked before the file is read, and so before the point count
    # k^m, a float for m < 0
    ('recognize cube --file empty.txt --m -1 --k 3 --eps 1/4', 2,
     '',
     'error: need m >= 1, got m=-1\n',
     None),
    ('recognize cube --file grid.txt --m -2 --k 2 --eps 1/4', 2,
     '',
     'error: need m >= 1, got m=-2\n',
     None),
    ('construct blowup --k 3 --r 2 --eps 1/4', 0,
     't = 12\nsize = 9\ndiameter = 26\n0 1 2 12 13 14 24 25 26\n', '', None),
    ('construct blowup --k 3 --r 2 --eps 1/4 --format csv', 0,
     '0\n1\n2\n12\n13\n14\n24\n25\n26\n', '', None),
    ('construct blowup --k 3 --r 2 --eps 1/4 --one-based --json', 0,
     '{"command": "construct blowup", "diameter": 26, "elements": [1, 2, 3, '
     '13, 14, 15, 25, 26, 27], "k": 3, "r": 2, "t": 12}\n', '', None),
    ('construct blowup --k 3 --r 1 --eps 3', 0,  # t = 1 < k, but one digit
     't = 1\nsize = 3\ndiameter = 2\n0 1 2\n', '', None),
    ('construct blowup --k 3 --r 2 --eps 1/10 --cap -1', 2,
     '',
     'error: cap must be >= 0, got -1\n',
     None),
    ('construct alternate --r 2 --D 3 --t 2 --offset 1', 0,
     '-1 -1 -1 +1 +1 +1 -1 -1 -1 +1 +1 +1\n', '', None),
    ('construct alternate --r 2 --D 3 --t 2 --offset 1 --format csv', 0,
     '-1,-1,-1,1,1,1,-1,-1,-1,1,1,1\n', '', None),
    ('construct alternate --r 2 --D 3 --t 2 --offset 1 --json', 0,
     '{"D": 3, "command": "construct alternate", "labels": [-1, -1, -1, 1, '
     '1, 1, -1, -1, -1, 1, 1, 1], "offset": 1, "r": 2, "t": 2}\n', '', None),
    ('construct simple-r2 --k 5 --eps 1/5', 0,
     '# N=8 r=2 eps=1/5 k=5\n1\n1\n1\n1\n2\n2\n2\n2\n', '', None),
    ('construct simple-r2 --k 5 --eps 1/5 --format csv', 0,
     '# N=8 r=2 eps=1/5 k=5\n1\n1\n1\n1\n2\n2\n2\n2\n', '', None),
    ('construct simple-r2 --k 5 --eps 1/5 --json', 0,
     '{"N": 8, "colors": [1, 1, 1, 1, 2, 2, 2, 2], '
     '"command": "construct simple-r2", "r": 2}\n', '', None),
    ('construct simple-r2 --k 5 --eps 1/5 --out out.txt', 0,
     'wrote coloring of [8] to out.txt\n',
     '',
     b'# N=8 r=2 eps=1/5 k=5\n1\n1\n1\n1\n2\n2\n2\n2\n'),
    ('construct simple-r2 --k 5 --eps 1/5 --out out.txt --format csv', 0,
     'wrote coloring of [8] to out.txt\n',
     '',
     b'# N=8 r=2 eps=1/5 k=5\n1\n1\n1\n1\n2\n2\n2\n2\n'),
    ('construct simple-r2 --k 5 --eps 1/5 --out out.txt --json', 0,
     '{"N": 8, "command": "construct simple-r2", "out": "out.txt", "r": 2}\n',
     '',
     b'# N=8 r=2 eps=1/5 k=5\n1\n1\n1\n1\n2\n2\n2\n2\n'),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30', 0,
     '# N=7 r=1 eps=1/30 k=8\n1\n1\n1\n1\n1\n1\n1\n', '', None),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30 --format csv', 0,
     '# N=7 r=1 eps=1/30 k=8\n1\n1\n1\n1\n1\n1\n1\n', '', None),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30 --json', 0,
     '{"N": 7, "colors": [1, 1, 1, 1, 1, 1, 1], '
     '"command": "construct lowerbound", "r": 1}\n', '', None),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30 --out out.txt', 0,
     'wrote coloring of [7] to out.txt\n',
     '',
     b'# N=7 r=1 eps=1/30 k=8\n1\n1\n1\n1\n1\n1\n1\n'),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30'
     ' --out out.txt --format csv', 0,
     'wrote coloring of [7] to out.txt\n',
     '',
     b'# N=7 r=1 eps=1/30 k=8\n1\n1\n1\n1\n1\n1\n1\n'),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30 --out out.txt --json', 0,
     '{"N": 7, "command": "construct lowerbound", "out": "out.txt", "r": 1}\n',
     '',
     b'# N=7 r=1 eps=1/30 k=8\n1\n1\n1\n1\n1\n1\n1\n'),
    ('construct lowerbound --k 771 --r 2 --eps 1/30 --eps0 1/30 --params-only', 0,
     'level r=2: k=771 s=2 w=4 t=97 blocks=[192] n1=148992\n'
     'level r=1: k=193 s=0 w=0 t=0 blocks=[] n1=192\n', '', None),
    ('construct lowerbound --k 771 --r 2 --eps 1/30 --eps0 1/30'
     ' --params-only --format csv', 0,
     '2,771,2,4,97,148992\n1,193,0,0,0,192\n', '', None),
    ('construct lowerbound --k 771 --r 2 --eps 1/30 --eps0 1/30'
     ' --params-only --json', 0,
     '{"command": "construct lowerbound", "params": [{"blocks": [192], '
     '"k": 771, "n0": 192, "n1": 148992, "r": 2, "s": 2, "t": 97, "w": 4}, '
     '{"blocks": [], "k": 193, "n0": 0, "n1": 192, "r": 1, "s": 0, "t": 0, '
     '"w": 0}]}\n', '', None),
    ('construct lowerbound --k 8 --r 1 --eps 1/30 --eps0 1/30 --cap -1', 2,
     '',
     'error: cap must be >= 0, got -1\n',
     None),
    # the schedule builds nothing, so a cap would be ignored
    ('construct lowerbound --k 771 --r 2 --eps 1/30 --eps0 1/30 --params-only --cap 1',
     2, '', 'error: --params-only takes no --cap\n', None),
    ('construct behrend --eps 1/125 --h 2', 0,
     'q = 5\nhead = [0, 1, 3, 4]\ntail = [2, 3]\nsize = 8\n'
     '2 3 7 8 17 18 22 23\n', '', None),
    ('construct behrend --eps 1/125 --h 2 --format csv', 0,
     '2\n3\n7\n8\n17\n18\n22\n23\n', '', None),
    ('construct behrend --eps 1/125 --h 2 --json', 0,
     '{"command": "construct behrend", "elements": [2, 3, 7, 8, 17, 18, 22, '
     '23], "h": 2, "head": [0, 1, 3, 4], "k": 3, "q": 5, "size": 8, '
     '"tail": [2, 3]}\n', '', None),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2', 0,
     'r = 2\nt = 12\nn0_bound = 36\n0\n1\n2\n12\n13\n14\n24\n25\n26\n', '', None),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2 --format csv', 0,
     '0\n1\n2\n12\n13\n14\n24\n25\n26\n', '', None),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2 --json', 0,
     '{"command": "construct cube-blowup", "elements": [[0], [1], [2], '
     '[12], [13], [14], [24], [25], [26]], "k": 3, "m": 1, "n0_bound": 36, '
     '"r": 2, "size": 9, "t": 12}\n', '', None),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2 --out out.txt', 0,
     'wrote 9 points to out.txt (r=2, t=12)\n',
     '',
     b'0\n1\n2\n12\n13\n14\n24\n25\n26\n'),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2'
     ' --out out.txt --format csv', 0,
     'wrote 9 points to out.txt (r=2, t=12)\n',
     '',
     b'0\n1\n2\n12\n13\n14\n24\n25\n26\n'),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2 --out out.txt --json', 0,
     '{"command": "construct cube-blowup", "elements": [[0], [1], [2], '
     '[12], [13], [14], [24], [25], [26]], "k": 3, "m": 1, "n0_bound": 36, '
     '"r": 2, "size": 9, "t": 12}\n',
     '',
     b'0\n1\n2\n12\n13\n14\n24\n25\n26\n'),
    ('construct cube-blowup --m 1 --k 3 --eps 1/4 --alpha 1/2 --cap -1', 2,
     '',
     'error: cap must be >= 0, got -1\n',
     None),
    ('construct cube-blowup --m 2 --k 3 --eps 5/2 --alpha 4/5', 2,
     '',
     'error: eps=5/2 gives digit base t=2 < k=3; blow-up digits would collide\n',
     None),
    ('construct product --set line.txt --m 2 --N 4', 0,
     '1 1\n1 2\n1 3\n1 4\n2 1\n2 2\n2 3\n2 4\n4 1\n4 2\n4 3\n4 4\n', '', None),
    ('construct product --set line.txt --m 2 --N 4 --format csv', 0,
     '1,1\n1,2\n1,3\n1,4\n2,1\n2,2\n2,3\n2,4\n4,1\n4,2\n4,3\n4,4\n', '', None),
    ('construct product --set line.txt --m 2 --N 4 --json', 0,
     '{"N": 4, "command": "construct product", "elements": [[1, 1], [1, 2], '
     '[1, 3], [1, 4], [2, 1], [2, 2], [2, 3], [2, 4], [4, 1], [4, 2], [4, '
     '3], [4, 4]], "m": 2, "size": 12}\n', '', None),
    ('construct product --set line.txt --m 2 --N 4 --out out.txt', 0,
     'wrote 12 points to out.txt\n',
     '',
     b'1 1\n1 2\n1 3\n1 4\n2 1\n2 2\n2 3\n2 4\n4 1\n4 2\n4 3\n4 4\n'),
    ('construct product --set line.txt --m 2 --N 4 --out out.txt --format csv', 0,
     'wrote 12 points to out.txt\n',
     '',
     b'1 1\n1 2\n1 3\n1 4\n2 1\n2 2\n2 3\n2 4\n4 1\n4 2\n4 3\n4 4\n'),
    ('construct product --set line.txt --m 2 --N 4 --out out.txt --json', 0,
     '{"N": 4, "command": "construct product", "elements": [[1, 1], [1, 2], '
     '[1, 3], [1, 4], [2, 1], [2, 2], [2, 3], [2, 4], [4, 1], [4, 2], [4, '
     '3], [4, 4]], "m": 2, "size": 12}\n',
     '',
     b'1 1\n1 2\n1 3\n1 4\n2 1\n2 2\n2 3\n2 4\n4 1\n4 2\n4 3\n4 4\n'),
    # N is checked before A, so an empty A does not make a negative N a set
    ('construct product --set empty.txt --m 2 --N -3 --json', 2,
     '',
     'error: need m >= 1 and N >= 0, got m=2, N=-3\n',
     None),
    ('verify coloring --file good.txt', 0,
     'good: no monochromatic approximate progression\n', '', None),
    ('verify coloring --file good.txt --format csv', 0,
     'good\n', '', None),
    ('verify coloring --file good.txt --json', 0,
     '{"command": "verify coloring", "free_of_monochromatic_ap": true, '
     '"witness": null}\n', '', None),
    ('verify coloring --file mono.txt', 1,
     'monochromatic: color 1 on [1, 2, 3]\n', '', None),
    ('verify coloring --file mono.txt --format csv', 1,
     'monochromatic,1,1 2 3\n', '', None),
    ('verify coloring --file mono.txt --json', 1,
     '{"command": "verify coloring", "free_of_monochromatic_ap": false, '
     '"witness": {"color": 1, "points": [1, 2, 3], '
     '"witness": {"a": {"den": 1, "num": 1}, "d": {"den": 1, "num": 1}, '
     '"margin": {"den": 5, "num": 1}}}}\n', '', None),
    ('verify coloring --file good.txt --k 3 --eps 1/4', 1,
     'monochromatic: color 1 on [1, 2, 3]\n', '', None),
    ('verify coloring --file badcolor.txt', 2,
     '',
     "error: coloring file line 4: 'x' is not an integer\n",
     None),
    ('verify set --file line.txt --m 1 --k 3 --eps 1/100', 0,
     'free\n', '', None),
    ('verify set --file line.txt --m 1 --k 3 --eps 1/100 --format csv', 0,
     'free\n', '', None),
    ('verify set --file line.txt --m 1 --k 3 --eps 1/100 --json', 0,
     '{"command": "verify set", "free": true, "witness": null}\n', '', None),
    ('verify set --file run.txt --m 1 --k 3 --eps 1/100', 1,
     'contains approximate structure: [1, 2, 3]\n', '', None),
    ('verify set --file run.txt --m 1 --k 3 --eps 1/100 --format csv', 1,
     'contains\n', '', None),
    ('verify set --file run.txt --m 1 --k 3 --eps 1/100 --json', 1,
     '{"command": "verify set", "free": false, "witness": {"points": [1, 2, '
     '3], "witness": {"a": {"den": 1, "num": 1}, "d": {"den": 1, "num": 1}, '
     '"margin": {"den": 100, "num": 1}}}}\n', '', None),
    ('verify set --file skew.txt --m 2 --k 2 --eps 1/100', 0,
     'free\n', '', None),
    ('verify set --file skew.txt --m 2 --k 2 --eps 1/100 --format csv', 0,
     'free\n', '', None),
    ('verify set --file skew.txt --m 2 --k 2 --eps 1/100 --json', 0,
     '{"command": "verify set", "free": true, "witness": null}\n', '', None),
    ('verify set --file product.txt --m 3 --k 3 --eps 1/100', 0,
     'free\n', '', None),
    ('verify set --file product.txt --m 3 --k 3 --eps 1/100 --format csv', 0,
     'free\n', '', None),
    ('verify set --file product.txt --m 3 --k 3 --eps 1/100 --json', 0,
     '{"command": "verify set", "free": true, "witness": null}\n', '', None),
    ('verify set --file grid.txt --m 2 --k 2 --eps 1/4', 1,
     'contains approximate structure: [(0, 0), (0, 10), (10, 0), (10, 10)]\n',
     '',
     None),
    ('verify set --file grid.txt --m 2 --k 2 --eps 1/4 --format csv', 1,
     'contains\n', '', None),
    ('verify set --file grid.txt --m 2 --k 2 --eps 1/4 --json', 1,
     '{"command": "verify set", "free": false, "witness": {"grid": {"(0, '
     '0)": [0, 0], "(0, 1)": [0, 10], "(1, 0)": [10, 0], "(1, 1)": [10, '
     '10]}, "witness": {"a": ["0.0", "0.0"], "certified": true, '
     '"d": "10.0", "residual": "2.5", "tol": "1e-09"}}}\n', '', None),
    # the work cap counts search nodes: the progression [1, 2, 3] takes 4,
    # the 2x2 cube 11 (its axis projections included)
    ('verify coloring --file mono.txt --work-cap 1', 2,
     '', 'error: search work cap of 1 exceeded\n', None),
    ('verify coloring --file mono.txt --work-cap 4', 1,
     'monochromatic: color 1 on [1, 2, 3]\n', '', None),
    ('verify set --file run.txt --m 1 --k 3 --eps 1/100 --work-cap 1', 2,
     '', 'error: search work cap of 1 exceeded\n', None),
    ('verify set --file run.txt --m 1 --k 3 --eps 1/100 --work-cap 3', 2,
     '', 'error: search work cap of 3 exceeded\n', None),
    ('verify set --file run.txt --m 1 --k 3 --eps 1/100 --work-cap 4', 1,
     'contains approximate structure: [1, 2, 3]\n', '', None),
    ('verify set --file grid.txt --m 2 --k 2 --eps 1/4 --work-cap 10', 2,
     '', 'error: search work cap of 10 exceeded\n', None),
    ('verify set --file grid.txt --m 2 --k 2 --eps 1/4 --work-cap 11', 1,
     'contains approximate structure: [(0, 0), (0, 10), (10, 0), (10, 10)]\n',
     '', None),
    # a negative cap is refused even where no search runs
    ('verify set --file one.txt --m 2 --k 2 --eps 1/4 --work-cap -1', 2,
     '', 'error: work cap must be >= 0, got -1\n', None),
    ('verify set --file line.txt --m 1 --k 5 --eps 1/4 --work-cap -1', 2,
     '', 'error: work cap must be >= 0, got -1\n', None),
    ('verify coloring --file good.txt --work-cap -1', 2,
     '', 'error: work cap must be >= 0, got -1\n', None),
    ('verify set --file line.txt --m 0 --k 3 --eps 1/100', 2,
     '',
     'error: need m >= 1, got m=0\n',
     None),
    ('verify set --file huge.txt --m 2 --k 2 --eps 1/4', 2,
     '',
     'error: coordinate 1 of the point at index (0, 1) has 1329 bits; '
     'recognize_cube computes in floats and needs |x| < 2^500\n',
     None),
    # 2 eps >= k - 1 is refused whatever the set holds, too few points
    # for a grid included
    ('verify set --file one.txt --m 2 --k 2 --eps 3', 2,
     '',
     'error: eps=3 too large; recognize_cube needs eps < (k-1)/2\n',
     None),
    ('verify set --file grid.txt --m 2 --k 2 --eps 3', 2,
     '',
     'error: eps=3 too large; recognize_cube needs eps < (k-1)/2\n',
     None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 20', 0,
     'value 5\ngood coloring of [4]: [1, 1, 2, 2]\n', '', None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 20 --format csv', 0,
     'value,5\n', '', None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 20 --json', 0,
     '{"command": "wnumber", "kind": "value", "nodes": 21, "value": 5, '
     '"witness_coloring": [1, 1, 2, 2]}\n', '', None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 3', 1,
     'lower_bound_only 3\ngood coloring of [3]: [1, 1, 2]\n', '', None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 3 --format csv', 1,
     'lower_bound_only,3\n', '', None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 3 --json', 1,
     '{"command": "wnumber", "kind": "lower_bound_only", "nodes": 8, '
     '"value": 3, "witness_coloring": [1, 1, 2]}\n', '', None),
    ('wnumber --k 3 --r 2 --eps 1/3 --nmax 20 --work-cap -1', 2,
     '',
     'error: work cap must be >= 0, got -1\n',
     None),
    ('density --N 6 --k 3 --eps 1/10', 0,
     'value 4\nwitness: [1, 2, 4, 5]\n', '', None),
    ('density --N 6 --k 3 --eps 1/10 --format csv', 0,
     'value,4\n', '', None),
    ('density --N 6 --k 3 --eps 1/10 --json', 0,
     '{"command": "density", "kind": "value", "nodes": 24, "value": 4, '
     '"witness_set": [1, 2, 4, 5]}\n', '', None),
    ('density --N 12 --k 3 --eps 1/10 --work-cap 5', 1,
     'lower_bound_only 2\nwitness: [1, 2]\n', '', None),
    ('density --N 12 --k 3 --eps 1/10 --work-cap 5 --format csv', 1,
     'lower_bound_only,2\n', '', None),
    ('density --N 12 --k 3 --eps 1/10 --work-cap 5 --json', 1,
     '{"command": "density", "kind": "lower_bound_only", "nodes": 5, '
     '"value": 2, "witness_set": [1, 2]}\n', '', None),
    ('density --N 12 --k 3 --eps 1/10 --work-cap 0 --json', 1,
     '{"command": "density", "kind": "lower_bound_only", "nodes": 0, '
     '"value": 2, "witness_set": [1, 2]}\n', '', None),
    ('density --N 3 --m 2 --k 2 --eps 1/5', 0,
     'value 7\n'
     'witness: [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]\n', '', None),
    ('density --N 9 --k 3 --exact-aps --json', 0,
     '{"command": "density", "kind": "value", "nodes": 60, "value": 5, '
     '"witness_set": [1, 2, 4, 8, 9]}\n', '', None),
    # 2 eps >= k - 1 is refused before the cube listing, so a cap that
    # stops the listing first does not hide it
    ('density --N 3 --m 2 --k 2 --eps 3', 2,
     '',
     'error: eps=3 too large; recognize_cube needs eps < (k-1)/2\n',
     None),
    ('density --N 3 --m 2 --k 2 --eps 3 --work-cap 1', 2,
     '',
     'error: eps=3 too large; recognize_cube needs eps < (k-1)/2\n',
     None),
    ('density --N 6 --k 3', 2,
     '',
     'error: density needs --eps unless --exact-aps is given\n',
     None),
    ('density --N 3 --m 2 --k 2 --eps 1/5 --exact-aps', 2,
     '',
     'error: --exact-aps only applies to m=1\n',
     None),
    ('density --N 9 --k 3 --exact-aps --eps 1/10', 2,
     '',
     'error: --exact-aps takes no --eps\n',
     None),
    ('hypergraph --N 5 --k 3 --eps 1/10', 0,
     '# N=5 k=3 eps=1/10\n1 2 3\n1 3 5\n2 3 4\n3 4 5\n', '', None),
    ('hypergraph --N 5 --k 3 --eps 1/10 --format csv', 0,
     '1,2,3\n1,3,5\n2,3,4\n3,4,5\n', '', None),
    ('hypergraph --N 5 --k 3 --eps 1/10 --json', 0,
     '{"N": 5, "command": "hypergraph", "edge_count": 4, "edges": [[1, 2, '
     '3], [1, 3, 5], [2, 3, 4], [3, 4, 5]], "k": 3}\n', '', None),
    ('hypergraph --N 2 --k 3 --eps 1/10', 0,
     '# N=2 k=3 eps=1/10\n', '', None),
    ('hypergraph --N 2 --k 3 --eps 1/10 --format csv', 0,
     '', '', None),
    ('hypergraph --N 2 --k 3 --eps 1/10 --json', 0,
     '{"N": 2, "command": "hypergraph", "edge_count": 0, "edges": [], '
     '"k": 3}\n', '', None),
    ('hypergraph --N 5 --k 3 --eps 1/10 --out out.txt', 0,
     'wrote 4 edges to out.txt\n',
     '',
     b'# N=5 k=3 eps=1/10\n1 2 3\n1 3 5\n2 3 4\n3 4 5\n'),
    ('hypergraph --N 5 --k 3 --eps 1/10 --out out.txt --format csv', 0,
     'wrote 4 edges to out.txt\n',
     '',
     b'# N=5 k=3 eps=1/10\n1 2 3\n1 3 5\n2 3 4\n3 4 5\n'),
    ('hypergraph --N 5 --k 3 --eps 1/10 --out out.txt --json', 0,
     '{"N": 5, "command": "hypergraph", "edge_count": 4, "edges": [[1, 2, '
     '3], [1, 3, 5], [2, 3, 4], [3, 4, 5]], "k": 3}\n',
     '',
     b'# N=5 k=3 eps=1/10\n1 2 3\n1 3 5\n2 3 4\n3 4 5\n'),
    ('hypergraph --N 2 --k 3 --eps 1/10 --out out.txt', 0,
     'wrote 0 edges to out.txt\n',
     '',
     b'# N=2 k=3 eps=1/10\n'),
    # The listing's work is 121 search nodes plus 824 edges; a cap of 945
    # fits (test_cli_hypergraph_fits_its_exact_work_cap).
    ('hypergraph --N 30 --k 3 --eps 1/10 --work-cap 944 --json', 2,
     '',
     'error: search work cap of 944 exceeded\n',
     None),
    # Exit 1 (bound not met) has no input: the shift with the most votes is
    # the best of all shifts, which is at least their average.
    ('translate --set-a a.txt --set-x x.txt --N 3 --m 2', 0,
     'shift = [0, 0]\ncount = 2 (bound 5/18)\n', '', None),
    ('translate --set-a a.txt --set-x x.txt --N 3 --m 2 --format csv', 0,
     '0,0,2\n', '', None),
    ('translate --set-a a.txt --set-x x.txt --N 3 --m 2 --json', 0,
     '{"bound": {"den": 18, "num": 5}, "bound_met": true, '
     '"command": "translate", "count": 2, "shift": [0, 0]}\n', '', None),
    ('translate --set-a a.txt --set-x x.txt --N 3 --m 0', 2,
     '',
     'error: need m >= 1, got m=0\n',
     None),
    ('translate --set-a a.txt --set-x x.txt --N 0 --m 2', 2,
     '',
     'error: need N >= 1, got N=0\n',
     None),
]


@pytest.mark.parametrize("argv, code, out, err, written", CASES,
                         ids=[case[0] for case in CASES])
def test_cli_golden(tmp_path, monkeypatch, capsys, argv, code, out, err, written):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
    path = tmp_path / OUT
    assert (path.read_bytes() if path.exists() else None) == written


# Inputs whose objects could never be built: each is refused, or answered
# as capped, from its sizes alone, with no power past its cap built;
# translate answers from its 2 pairs of points, not its (2N)^2 shifts.
HUGE_CASES = [
    ('construct blowup --k 3 --r 100000000 --eps 1/3', 2, '',
     'error: blow-up size k^r = 3^100000000 exceeds cap 1000000\n'),
    ('construct blowup --k 3 --r 10000 --eps 1/3', 2, '',
     'error: blow-up size k^r = 3^10000 exceeds cap 1000000\n'),
    ('construct cube-blowup --m 14 --k 3 --eps 1/2 --alpha 4/5', 2, '',
     'error: blow-up size k^m = 3^14 exceeds cap 200000\n'),
    ('construct cube-blowup --m 16 --k 3 --eps 1/2 --alpha 4/5', 2, '',
     'error: blow-up size k^m = 3^16 exceeds cap 200000\n'),
    ('construct cube-blowup --m 100 --k 3 --eps 1/2 --alpha 4/5', 2, '',
     'error: blow-up size k^m = 3^100 exceeds cap 200000\n'),
    ('hypergraph --N 100000000000 --k 3 --eps 1/4 --work-cap 100', 2, '',
     'error: search work cap of 100 exceeded\n'),
    ('density --N 100000000000 --m 2 --k 2 --eps 1/4 --work-cap 10 --json', 1,
     '{"command": "density", "kind": "lower_bound_only", "nodes": 10, "value": 3, '
     '"witness_set": [[1, 1], [1, 2], [1, 3]]}\n', ''),
    ('construct product --set line.txt --m 3 --N 100000', 2, '',
     'error: product size |A|*N^(m-1) = 3*100000^2 exceeds materialize cap 50000000\n'),
    ('translate --set-a corner.txt --set-x a.txt --N 100000000 --m 2', 0,
     'shift = [0, 0]\ncount = 1 (bound 1/20000000000000000)\n', ''),
]


@pytest.mark.parametrize("argv, code, out, err", HUGE_CASES,
                         ids=[case[0] for case in HUGE_CASES])
def test_cli_huge_inputs_answer_within_a_second(tmp_path, monkeypatch, capsys,
                                                 argv, code, out, err):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    start = time.perf_counter()
    assert main(argv.split()) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_cli_hypergraph_fits_its_exact_work_cap(tmp_path, monkeypatch, capsys):
    # 10,951 bytes of JSON, pinned by their SHA-256 rather than as a literal
    monkeypatch.chdir(tmp_path)
    argv = "hypergraph --N 30 --k 3 --eps 1/10 --work-cap 945 --json"
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and '"edge_count": 824,' in captured.out
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "941f3ed9eaa4176be91b5ea3b95c67082a92bde54a9595ed05c63e2466fd7c3d")


def test_every_command_has_golden_cases_in_every_format():
    commands = {command.words for command in COMMANDS}
    covered = set()
    for argv, *_ in CASES:
        tokens = argv.split()
        words = next(c for c in commands if tuple(tokens[:len(c)]) == c)
        covered.add((words, build_parser().parse_args(tokens).format))
    missing = sorted({(" ".join(c), fmt) for c in commands
                      for fmt in ("text", "csv", "json")} - {
        (" ".join(c), fmt) for c, fmt in covered})
    assert not missing, f"commands without a golden case: {missing}"
