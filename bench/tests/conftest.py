"""Run the benchmark's tests after the rest of the suite.

They keep a core busy for about half a minute, and the acceptance suite has
wall-clock bounds that should not run right after such a stretch.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(session, config, items):
    items.sort(key=lambda item: str(item.path).startswith(HERE))
