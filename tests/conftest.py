from hypothesis import settings

# One profile for the suite: the same examples on every run, and no per-example deadline.
settings.register_profile("cavitypair", deadline=None, derandomize=True)
settings.load_profile("cavitypair")
