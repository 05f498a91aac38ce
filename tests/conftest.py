from hypothesis import settings

# Profiles are registered here, before pytest loads the one it is given.
# "cli-large" is a larger budget for tests/test_cli_property.py, which CI
# does not run:
#   python -m pytest tests/test_cli_property.py --hypothesis-profile=cli-large
settings.register_profile("cli-large", max_examples=20_000, deadline=None)
