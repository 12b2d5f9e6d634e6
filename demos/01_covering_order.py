# %% [markdown]
# # The covering order on vote vectors
#
# Labeling functions in this package either fire (1, positive evidence)
# or abstain (0, no evidence). That one-sidedness buys a partial order:
# if record B's votes dominate record A's bitwise, B has strictly more
# positive evidence, so any sensible score must rank B at least as high.
# This script builds that order for a small dataset and shows how it
# turns into linear constraints on scores.

# %%
import numpy as np

from weapo import (
    Dataset,
    Record,
    build_slices,
    constraint_matrix,
    covers,
    hasse_edges,
    mv_scores,
)

rows = [
    ("a1", (1, 0, 0)),
    ("a2", (1, 0, 0)),
    ("b1", (1, 1, 0)),
    ("c1", (1, 1, 1)),
    ("d1", (0, 0, 1)),
    ("e1", (0, 0, 0)),  # nothing fired: uncovered
]
dataset = Dataset.from_records([Record(id=i, votes=v) for i, v in rows])

# %% [markdown]
# Records sharing a vote vector form a slice: one row of the dataset's
# vote table, which counts the records that carry it. The all-zero
# vector is excluded: with no evidence at all there is nothing to
# constrain.

# %%
table = build_slices(dataset)
print("slices (vote vector -> record count):")
for votes, row in table.slices.items():
    print(f"  {votes} -> {int(table.patterns.weights[row])}")

# %%
print("covers((1,1,0), (1,0,0)) =", covers((1, 1, 0), (1, 0, 0)))
print("covers((1,0,0), (0,0,1)) =", covers((1, 0, 0), (0, 0, 1)))

# %% [markdown]
# The full order has redundant pairs, e.g. (1,0,0) < (1,1,1) follows
# from (1,0,0) < (1,1,0) < (1,1,1). `hasse_edges` keeps only the
# immediate steps, which imply all the others.

# %%
edges = hasse_edges(table.slices.keys())
print("covering edges (low < high):")
for edge in edges:
    print(f"  {edge.low} < {edge.high}")

# %% [markdown]
# Each edge becomes one row of a constraint operator: the mean score of
# the lower slice minus the mean score of the upper slice. A score
# assignment is order-respecting exactly when every row comes out
# non-positive. Majority vote respects the order by construction.

# %%
matrix = constraint_matrix(table, edges)
scores = mv_scores(dataset)
print("constraint values at majority-vote scores:", matrix.apply(scores))
print("all non-positive:", bool((matrix.apply(scores) <= 0).all()))

# %% [markdown]
# A score that ranks (1,0,0) above (1,1,0) breaks the order, and the
# operator flags it with a positive entry.

# %%
bad = scores.copy()
bad[0] = bad[1] = 0.9  # inflate the (1,0,0) slice
print("constraint values at the broken scores:", matrix.apply(bad))
print("violations:", int((matrix.apply(bad) > 0).sum()))

# %% [markdown]
# On random data the reduction is typically large: most comparable
# pairs are implied by a much smaller edge set.

# %%
rng = np.random.default_rng(0)
votes = (rng.random((400, 6)) < 0.35).astype(int)
big = Dataset.from_records(
    [Record(id=f"r{i}", votes=tuple(v)) for i, v in enumerate(votes)]
)
big_table = build_slices(big)
keys = list(big_table.slices.keys())
comparable = sum(
    covers(high, low) for high in keys for low in keys if high != low
)
print(f"{len(keys)} distinct vote vectors")
print(f"{comparable} comparable pairs, {len(hasse_edges(keys))} covering edges")
