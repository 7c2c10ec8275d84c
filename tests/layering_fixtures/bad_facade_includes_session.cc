// Layering-linter fixture (never compiled): the Database facade including
// its own client layer. Session sits on top of the facade and is the only
// thing that runs a plan, so under src/ only Session's own files may
// include service/session.h; the linter must reject this include.
// pretend: src/service/database.cc
// expect: facade-below-session
#include "service/session.h"
