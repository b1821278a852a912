"""Per-level views of a class tree, for tests that compare levels."""

from fedeval.hierarchy import _level_views


def level_views(tree):
    """One view of tree's level-order nodes per level, level 1 first."""
    return _level_views(tree.nodes, tree.spec)
