"""Every input limit of the package, one constant each; the README's limits
table lists them.  An input over one exits 2, naming the limit."""

# Hard ceiling on letters a single parse may expand to: powers and nested
# commutators multiply lengths, and an unbounded expansion turns a short
# input into a denial of service.  Far above any realistic relator.  Words
# are (generator, exponent) syllables, 262,144 in (a1 b1)^131072, and a
# file's distinct word lines are capped in syllables summed (the slowest
# file at the cap measured, 32 lines of squares, takes 2.3 s and 115 MB).
_MAX_PARSED_LETTERS = 1 << 18
_MAX_FILE_SYLLABLES = 1 << 22

# Ceilings on the constructions a short input can blow up, each set so
# that the largest input accepted runs in about 2 s at most in-process.
# A witness's fiber genus is linear, and its commutator count quadratic,
# in its generator count (free rank plus torsion factors); its torsion
# relators t^d take _MAX_PARSED_LETTERS letters at most in all, so each
# one still parses.  A fiber sum of base genus e adds 4 e f mixed
# commutators on a genus-f fiber, so e f is capped as well as e.  A
# fibration file's fiber_genus g makes the monodromy 2g x 2g matrices,
# and a twist by the class c updates 2 nnz(c) rows of them: the updated
# entries are capped in sum over the twists before the first (8 dense
# twists at genus 512), and, as the twists run, so is each twist's count
# weighed by 1 + (a bound on the entries' bits) // 1024.
# Homology's torsion summands, weighed 1 + bits // 89 by their orders' bits
# to bound the bytes printed, are capped before any is built: 6,512 of 14,283
# bits (4.3 KB each, 28 MB in all) fit, as do (Z/2)^16's 548,590 to degree 8.
_MAX_WITNESS_GENERATORS = 256
_MAX_BASE_GENUS = 1024
_MAX_GENUS_PRODUCT = 1 << 14
_MAX_FIBER_GENUS = 512
_MAX_TWIST_WORK = 1 << 24
_MAX_HOMOLOGY_SUMMANDS = 1 << 20
# `homology` reports degrees 0 through its degree operand, at most this.
_MAX_HOMOLOGY_DEGREE = 8
# A group spec's largest invariant factor, the lcm of its torsion orders, may
# take as many bits as fit in 4300 digits, so that every factor prints within
# Python's 4300-digit int-to-str limit.  A term of more digits is refused
# unparsed.
_MAX_TORSION_DIGITS = 4300
_MAX_TORSION_BITS = (10 ** _MAX_TORSION_DIGITS).bit_length() - 1
# `classify Z^r` lists r/2 realizable dimensions, so the free rank is capped;
# the coprime base of the distinct torsion orders costs each order up to
# about 1,200 gcds under the lcm cap, so their number is capped too.
_MAX_FREE_RANK = 1 << 20
_MAX_TORSION_ORDERS = 4096
