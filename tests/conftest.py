from hypothesis import settings

# the same examples on every run, and no per-example deadline on a loaded machine
settings.register_profile("avmlar", derandomize=True, deadline=None, database=None)
settings.load_profile("avmlar")
