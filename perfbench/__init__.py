"""End-to-end serving benchmark of the repository (see README.md here)."""
