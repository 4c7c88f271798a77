from hypothesis import settings

# Same examples on every run, and no per-example deadline: Tier-1 runs on
# small shared machines where wall-clock time per example varies widely.
settings.register_profile("qipsim", derandomize=True, deadline=None, database=None)
settings.load_profile("qipsim")
