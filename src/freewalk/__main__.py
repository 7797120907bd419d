"""``python -m freewalk``: the freewalk command line, as the ``freewalk`` script runs it."""
from freewalk.cli import main

raise SystemExit(main())
